package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// Golden holds output digests recorded for fixed seeds: workload →
// seed → hex SHA-256 of the workload's canonical outputs.
type Golden struct {
	Digests map[string]map[string]string `json:"digests"`
}

// LoadGolden reads the recorded digests.
func LoadGolden(path string) (*Golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden digests: %w", err)
	}
	g := &Golden{}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("parse golden digests %s: %w", path, err)
	}
	if g.Digests == nil {
		g.Digests = map[string]map[string]string{}
	}
	return g, nil
}

// Save writes the digests back, keys sorted by encoding/json.
func (g *Golden) Save(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// goldenSeeds is how many seeds, 0 to goldenSeeds-1, have recorded
// digests per workload.
const goldenSeeds = 32

// Target returns the seed whose recorded digest a run on seed checks:
// seed itself when it was recorded, otherwise the reference seed
// seed mod goldenSeeds, whose outputs the run computes as well. So a
// wrong but reproducible output fails whatever seed the run is given.
func (g *Golden) Target(workload string, seed int64) int64 {
	if _, ok := g.Digests[workload][strconv.FormatInt(seed, 10)]; ok {
		return seed
	}
	return (seed%goldenSeeds + goldenSeeds) % goldenSeeds
}

// Check compares a seed's digest with the recorded one (a failure
// when they differ or when the seed was never recorded), or records it
// when record is set.
func (g *Golden) Check(workload string, seed int64, digest string, record bool, t *Tally) {
	key := strconv.FormatInt(seed, 10)
	if record {
		if g.Digests[workload] == nil {
			g.Digests[workload] = map[string]string{}
		}
		g.Digests[workload][key] = digest
		return
	}
	t.Attempted++
	switch want, ok := g.Digests[workload][key]; {
	case !ok:
		t.Fail("%s seed %d: no recorded output digest", workload, seed)
	case want != digest:
		t.Fail("%s seed %d: output digest %s, recorded %s", workload, seed, digest[:12], want[:12])
	}
}

// digest hashes a sequence of byte strings, length-prefixed so the
// boundaries count.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
