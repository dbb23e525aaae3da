package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
)

// goldens maps workload -> key -> digest of the expected output. Batch
// workloads key by op seed; coordd-mix by request kind, run seed and variant.
type goldens map[string]map[string]string

// loadGoldens reads the committed goldens. A missing file is an error, so a
// wrong path cannot pass every check unchecked; only regeneration (allowMissing)
// may start from an empty set.
func loadGoldens(path string, allowMissing bool) (goldens, error) {
	g := goldens{}
	b, err := os.ReadFile(path)
	if allowMissing && errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// digest is a short content hash of an op's canonical output.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// checker counts ops and the ones that fail a check.
type checker struct {
	e                 *env
	workload          string
	attempted, failed int
	logged            int
}

func newChecker(e *env, workload string) *checker { return &checker{e: e, workload: workload} }

// op checks one op's output: no error, no failed invariant, and, where the
// goldens cover the seed, the same summary digest. It reports whether the op
// passed.
func (c *checker) op(seed int64, out *opOut, err error) bool {
	c.attempted++
	switch {
	case err != nil:
		c.fail(seed, err.Error())
	case len(out.problems) > 0:
		c.fail(seed, fmt.Sprint(out.problems))
	default:
		want, ok := c.e.golden[c.workload][strconv.FormatInt(seed, 10)]
		if ok && want != digest([]byte(out.summary)) {
			c.fail(seed, "summary differs from the golden")
		} else {
			return true
		}
	}
	return false
}

// fail counts one failure and logs the first few to standard error.
func (c *checker) fail(seed int64, msg string) {
	c.failed++
	if c.logged < 10 {
		c.logged++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: check failed: %s\n", c.workload, seed, msg)
	}
}

// oracle checks coordd-mix's expected response bodies against the goldens.
func (c *checker) oracle(in *coorddInputs) {
	for key, ex := range in.oracle {
		if want, ok := c.e.golden[c.workload][key]; ok && want != digest(ex.body) {
			c.attempted++
			c.fail(c.e.seed, key+": response body differs from the golden")
		}
	}
	if want, ok := c.e.golden[c.workload][bodyKey("ingest", c.e.seed, 0)]; ok && want != digest(in.ingestR) {
		c.attempted++
		c.fail(c.e.seed, "ingest response differs from the golden")
	}
}

// requests folds an open-loop run's outcomes into the counts.
func (c *checker) requests(st mixStats) {
	c.attempted += st.attempted
	for _, p := range st.problems {
		c.fail(c.e.seed, p)
	}
}

func (c *checker) result(m map[string]metric) *result {
	return &result{Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// regenerateGoldens recomputes w's goldens for seeds 1..n with the untraced
// entry points and rewrites path.
func regenerateGoldens(e *env, w workload, n int, path string) error {
	g := e.golden
	entries := map[string]string{}
	for seed := int64(1); seed <= int64(n); seed++ {
		if w.batch != nil {
			out, err := w.batch.run(e, seed)
			if err != nil {
				return err
			}
			if len(out.problems) > 0 {
				return fmt.Errorf("seed %d: %v", seed, out.problems)
			}
			entries[strconv.FormatInt(seed, 10)] = digest([]byte(out.summary))
			continue
		}
		in, err := buildCoorddInputs(seed)
		if err != nil {
			return err
		}
		for key, ex := range in.oracle {
			entries[key] = digest(ex.body)
		}
		entries[bodyKey("ingest", seed, 0)] = digest(in.ingestR)
	}
	g[w.name] = entries
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
