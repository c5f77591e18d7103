package cas

import (
	"crypto/sha256"
	"os"
)

// Stores written by earlier versions can hold chunk trees: a value over
// 64 KiB was split into 64 KiB 'L' leaves under 'N' nodes, whose payload
// lists their children's addresses, the value's address being the root's
// (the gather document of a campaign past about 300 runs is one). Put
// never builds a tree, but an old one is still read, pinned and checked.

// tagNode is the type tag of a legacy interior node.
const tagNode = 'N'

// nodeKids parses the child addresses of a node payload; ok is false for
// a payload that is not a well-formed node.
func nodeKids(payload []byte) (kids []Hash, ok bool) {
	if len(payload) == 0 || payload[0] != tagNode {
		return nil, false
	}
	body := payload[1:]
	if len(body) == 0 || len(body)%HashSize != 0 {
		return nil, false
	}
	kids = make([]Hash, len(body)/HashSize)
	for i := range kids {
		copy(kids[i][:], body[i*HashSize:])
	}
	return kids, true
}

// legacyKids returns the children of the chunk file at path if it is a
// well-formed node verifying against h; only a node-sized file is read.
func legacyKids(path string, h Hash, size int64) []Hash {
	if size <= 1 || (size-1)%HashSize != 0 {
		return nil
	}
	payload, err := os.ReadFile(path)
	if err != nil || sha256.Sum256(payload) != h {
		return nil
	}
	kids, _ := nodeKids(payload)
	return kids
}

// assemble concatenates the values under a verified node, read by Get.
func (s *Store) assemble(kids []Hash) ([]byte, error) {
	var out []byte
	for _, k := range kids {
		v, err := s.Get(k)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

// missingKid names a child of a node that has no chunk file, if any.
func (s *Store) missingKid(kids []Hash) string {
	for _, k := range kids {
		if _, err := os.Stat(s.chunkPath(k)); err != nil {
			return "legacy node child " + k.String() + " missing"
		}
	}
	return ""
}
