// Package rendezvous is highest-random-weight ordering: every (member, key)
// pair gets a deterministic score, and a key's preference order is its
// members sorted by descending score. The router places digests on shards
// with it and the shards derive peer-consult and replica-owner orders with
// it, so with the fleet's shard IDs as members every tier agrees on a key's
// order without coordination.
package rendezvous

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Score is the weight of key on member: the first 8 bytes of
// SHA-256(member || 0x00 || key). SHA-256 keeps the order identical across
// processes and architectures.
func Score(member, key string) uint64 {
	h := sha256.New()
	h.Write([]byte(member))
	h.Write([]byte{0})
	h.Write([]byte(key))
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0]))
}

// Order returns members in key's preference order: descending Score of
// id(member), the id as the (practically unreachable) tie-break. The order
// depends only on the ids and the key, never on the input order.
func Order[M any](members []M, id func(M) string, key string) []M {
	type ranked struct {
		m     M
		id    string
		score uint64
	}
	rs := make([]ranked, len(members))
	for i, m := range members {
		rs[i] = ranked{m, id(m), Score(id(m), key)}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].score != rs[j].score {
			return rs[i].score > rs[j].score
		}
		return rs[i].id < rs[j].id
	})
	out := make([]M, len(rs))
	for i, r := range rs {
		out[i] = r.m
	}
	return out
}
