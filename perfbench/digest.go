package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricsText renders flattened metrics one per line, sorted, with
// shortest-round-trip floats, so any change of a metric's bits (one ULP
// included) changes the text.
func metricsText(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s = %s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	return b.String()
}

// outputDigest is the SHA-256 over one request's rendered output plus
// its flattened metrics.
func outputDigest(rendered string, metrics map[string]float64) string {
	h := sha256.New()
	h.Write([]byte(rendered))
	h.Write([]byte{0})
	h.Write([]byte(metricsText(metrics)))
	return hex.EncodeToString(h.Sum(nil))
}

// digestsFile holds the committed expected digests: workload → request
// name → digest, computed at defaultSeed.
const digestsFile = "digests.json"

//go:embed digests.json
var committedDigests []byte

// digestCheck compares each request's output digest with the committed
// one when there is one for this workload and seed, and otherwise with
// the digest the same request produced in this process's first pass.
type digestCheck struct {
	expected map[string]string // nil: no committed digests apply

	mu   sync.Mutex
	seen map[string]string
}

// newDigestCheck loads the committed digests that apply to a run of the
// workload at the seed: all of them, unless the workload's outputs
// follow the seed and the seed is not defaultSeed. A run that records
// new digests checks only that passes agree.
func newDigestCheck(w *workload, seed int64, update bool) (*digestCheck, error) {
	c := &digestCheck{seen: map[string]string{}}
	if update || (w.seededOutputs && seed != defaultSeed) {
		return c, nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(committedDigests, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsFile, err)
	}
	c.expected = all[w.name]
	if c.expected == nil {
		c.expected = map[string]string{}
	}
	return c, nil
}

// check reports an error when the digest differs from the expected one.
// A request with no committed digest at a seed that has them is an
// error too: the committed set must cover every request.
func (c *digestCheck) check(name, got string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expected != nil {
		want, ok := c.expected[name]
		if !ok {
			return fmt.Errorf("%s: no committed digest (regenerate %s with -update-digests)", name, digestsFile)
		}
		if got != want {
			return fmt.Errorf("%s: output digest %s, committed %s", name, got[:12], want[:12])
		}
	}
	if first, ok := c.seen[name]; ok && got != first {
		return fmt.Errorf("%s: output digest %s differs from the first pass's %s", name, got[:12], first[:12])
	}
	c.seen[name] = got
	return nil
}

// updateDigests rewrites the workload's entry in the digests file in
// the benchmark's source directory from the digests this run saw.
func updateDigests(path, workload string, seen map[string]string) error {
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[workload] = seen
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
