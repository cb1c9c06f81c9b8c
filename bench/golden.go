package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
)

// goldenFS holds the committed goldens: per seed, each workload's digest of
// every simulated output of one pass. seed-1 is the seed changes are made
// against; seed-2 is held out, and a claim must hold on it too.
//
//go:embed golden/*.json
var goldenFS embed.FS

type goldenFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func goldenName(seed uint64) string { return fmt.Sprintf("seed-%d.json", seed) }

// goldens returns the committed digests for a seed, or nil when the seed
// has no golden file.
func goldens(seed uint64) (map[string]string, error) {
	b, err := goldenFS.ReadFile("golden/" + goldenName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(seed), err)
	}
	return g.Digests, nil
}

// writeGolden merges digests into the seed's golden file in the source
// tree: bench/golden from the repository root, or golden from inside bench/.
func writeGolden(seed uint64, digests map[string]string) error {
	dir := filepath.Join("bench", "golden")
	if _, err := os.Stat(dir); err != nil {
		dir = "golden"
	}
	path := filepath.Join(dir, goldenName(seed))
	g := goldenFile{Seed: seed}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("golden %s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if g.Digests == nil {
		g.Digests = map[string]string{}
	}
	maps.Copy(g.Digests, digests)
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
