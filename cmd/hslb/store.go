package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hslb/internal/ampl"
	"hslb/internal/bench"
	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/resultstore"
)

// Subcommands over the versioned result store:
//
//	hslb log  -store-dir D [key]      list keys, or one key's history
//	hslb diff -store-dir D <a> <b>    explain the change between two
//	                                  committed campaigns (refs are keys,
//	                                  commit hashes, or unique prefixes)
//	hslb fsck -store-dir D            integrity-walk the store
//
// The pipeline mode commits its outcome under "campaign/<id>" when run
// with -store-dir (and -campaign to name the run).

// campaignKey is the store key of a named campaign's history.
func campaignKey(id string) string { return "campaign/" + id }

// parseTruthScale parses -truth-scale values like "ocn=1.5,atm=0.9".
func parseTruthScale(s string) (map[cesm.Component]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[cesm.Component]float64{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -truth-scale entry %q (want comp=factor)", part)
		}
		var comp cesm.Component
		switch strings.ToLower(kv[0]) {
		case "atm":
			comp = cesm.ATM
		case "ocn":
			comp = cesm.OCN
		case "ice":
			comp = cesm.ICE
		case "lnd":
			comp = cesm.LND
		default:
			return nil, fmt.Errorf("unknown component %q in -truth-scale (want atm, ocn, ice or lnd)", kv[0])
		}
		f, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad -truth-scale factor %q for %s (want a positive number)", kv[1], kv[0])
		}
		out[comp] = f
	}
	return out, nil
}

// modelDigest is the ampl.Canonical SHA-256 of the pipeline's generated
// MINLP model — the fingerprint recorded in the campaign record, matching
// the solve service's cache keying — for every objective.
func modelDigest(spec core.Spec) (string, error) {
	text, err := core.WriteAMPL(spec)
	if err != nil {
		return "", err
	}
	parsed, err := ampl.Parse(text)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(parsed.CanonicalForm()))
	return hex.EncodeToString(sum[:]), nil
}

// campaignRecord assembles the committed record of one pipeline run.
func campaignRecord(id string, po core.PipelineOptions, pr *core.PipelineResult) (resultstore.CampaignRecord, error) {
	spec := po.Spec
	spec.Perf = bench.Models(pr.Fits)
	digest, err := modelDigest(spec)
	if err != nil {
		return resultstore.CampaignRecord{}, fmt.Errorf("model digest: %w", err)
	}
	rec := resultstore.CampaignRecord{
		ID:               id,
		Resolution:       spec.Resolution.String(),
		Layout:           int(spec.Layout) + 1,
		TotalNodes:       spec.TotalNodes,
		Objective:        spec.Objective.String(),
		Seed:             po.Campaign.Seed,
		ObjectiveSeconds: pr.Decision.PredictedTime,
		Nodes:            map[string]int{},
		Threads:          map[string]int{},
		PredictedComp:    map[string]float64{},
		Fits:             map[string]resultstore.FitParams{},
		ModelDigest:      digest,
	}
	if pr.Execution != nil {
		rec.ActualSeconds = pr.Execution.Total
	}
	if pr.Quality != nil {
		rec.SolvePath = pr.Quality.SolvePath
	}
	for _, c := range cesm.OptimizedComponents {
		name := c.String()
		n := pr.Decision.Alloc.Get(c)
		rec.Nodes[name] = n
		rec.Threads[name] = n * cesm.CoresPerNode
		rec.PredictedComp[name] = pr.Decision.PredictedComp[c]
		if f := pr.Fits[c]; f != nil {
			rec.Fits[name] = resultstore.FitParams{
				A: f.Model.A, B: f.Model.B, C: f.Model.C, D: f.Model.D, R2: f.R2,
			}
		}
	}
	for c, f := range po.Campaign.TruthScale {
		if rec.TruthScale == nil {
			rec.TruthScale = map[string]float64{}
		}
		rec.TruthScale[c.String()] = f
	}
	return rec, nil
}

// commitCampaign writes the record as the head of campaign/<id>.
func commitCampaign(rs *resultstore.Store, rec resultstore.CampaignRecord) (resultstore.Commit, error) {
	b, err := resultstore.EncodeCampaign(rec)
	if err != nil {
		return resultstore.Commit{}, err
	}
	meta := map[string]string{"solve_path": rec.SolvePath}
	return rs.Commit(campaignKey(rec.ID), b, meta)
}

func openStore(dir string) (*resultstore.Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("-store-dir is required")
	}
	return resultstore.Open(dir, resultstore.Options{})
}

// runLog implements `hslb log`.
func runLog(args []string) error {
	fs := flag.NewFlagSet("hslb log", flag.ContinueOnError)
	storeDir := fs.String("store-dir", "", "result store directory")
	limit := fs.Int("n", 0, "show at most n commits (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rs, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	defer rs.Close()

	if fs.NArg() == 0 {
		keys := rs.Keys()
		if len(keys) == 0 {
			fmt.Println("empty store")
			return nil
		}
		for _, key := range keys {
			head, _ := rs.Head(key)
			fmt.Printf("%-40s %s  seq %d\n", key, shortHash(head.Hash), head.Seq)
		}
		return nil
	}

	key := fs.Arg(0)
	log, err := rs.Log(key, *limit)
	if err != nil {
		return err
	}
	for _, c := range log {
		line := fmt.Sprintf("%s  seq %-4d %s", shortHash(c.Hash), c.Seq,
			time.Unix(c.Unix, 0).UTC().Format("2006-01-02 15:04:05"))
		for _, k := range sortedMetaKeys(c.Meta) {
			line += fmt.Sprintf("  %s=%s", k, c.Meta[k])
		}
		fmt.Println(line)
	}
	return nil
}

// runDiff implements `hslb diff <ref> <ref>`.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("hslb diff", flag.ContinueOnError)
	storeDir := fs.String("store-dir", "", "result store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: hslb diff -store-dir DIR <from> <to> (campaign IDs, keys, or commit hashes)")
	}
	rs, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	defer rs.Close()

	from, err := loadCampaign(rs, fs.Arg(0))
	if err != nil {
		return err
	}
	to, err := loadCampaign(rs, fs.Arg(1))
	if err != nil {
		return err
	}
	resultstore.DiffCampaigns(from, to).Format(os.Stdout)
	return nil
}

// loadCampaign resolves a ref — a campaign ID, full store key, or commit
// hash (prefix) — to its committed campaign record.
func loadCampaign(rs *resultstore.Store, ref string) (resultstore.CampaignRecord, error) {
	c, err := rs.ResolveCommit(ref)
	if err != nil {
		// Bare campaign IDs resolve through their key namespace.
		if c2, err2 := rs.ResolveCommit(campaignKey(ref)); err2 == nil {
			c = c2
		} else {
			return resultstore.CampaignRecord{}, err
		}
	}
	b, err := rs.Value(c)
	if err != nil {
		return resultstore.CampaignRecord{}, err
	}
	return resultstore.DecodeCampaign(b)
}

// runFsck implements `hslb fsck`.
func runFsck(args []string) error {
	fs := flag.NewFlagSet("hslb fsck", flag.ContinueOnError)
	storeDir := fs.String("store-dir", "", "result store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rs, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	defer rs.Close()

	rep, err := rs.Fsck()
	if err != nil {
		return err
	}
	fmt.Printf("fsck: %d chunks, %d bytes verified\n", rep.Chunks, rep.Bytes)
	if rep.OK() {
		fmt.Println("fsck: clean")
		return nil
	}
	for _, c := range rep.Corruption {
		fmt.Printf("fsck: CORRUPT %s: %s\n", shortHash(c.Hash), c.Reason)
	}
	return fmt.Errorf("fsck found %d problem(s)", len(rep.Corruption))
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func sortedMetaKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
