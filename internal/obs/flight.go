package obs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"
)

// DefaultFlightCap is the number of events a recorder retains when
// constructed with a non-positive capacity.
const DefaultFlightCap = 4096

// Event is one journaled control decision: a telemetry evaluation, a plan, an
// override, a storm pause/admission, a guard demotion — anything the control
// plane decided. T is the virtual tick time (never wall clock, so event
// streams are reproducible); Seq orders events recorded at the same tick.
type Event struct {
	Seq  uint64            `json:"seq"`
	T    time.Duration     `json:"t"`
	Comp string            `json:"comp"`
	Kind string            `json:"kind"`
	Attr map[string]string `json:"attr,omitempty"`
}

// canonical returns the event's digest line: fixed field order, attribute
// keys sorted — byte-identical across runs for identical decision sequences.
func (e Event) canonical() string {
	keys := make([]string, 0, len(e.Attr))
	for k := range e.Attr {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("%d|%d|%s|%s", e.Seq, int64(e.T), e.Comp, e.Kind)
	for _, k := range keys {
		s += "|" + k + "=" + e.Attr[k]
	}
	return s
}

// Recorder is the control plane's flight recorder: a bounded ring buffer of
// Events plus a running digest over every event ever recorded (retention is
// bounded; the digest is not). Safe for concurrent use; nil-safe throughout.
type Recorder struct {
	mu    sync.Mutex
	ring  []Event // guarded by mu
	n     int     // guarded by mu
	next  int     // guarded by mu
	seq   uint64  // guarded by mu
	hash  uint64  // guarded by mu; running FNV-64a over canonical event lines
	drops uint64  // guarded by mu; events evicted from the ring
}

// NewRecorder returns a recorder retaining the last capacity events
// (DefaultFlightCap if <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	const fnvOffset = 14695981039346656037
	return &Recorder{ring: make([]Event, capacity), hash: fnvOffset}
}

// Record journals one event (no-op on nil). kv lists attribute pairs; a
// trailing odd key is dropped.
func (r *Recorder) Record(t time.Duration, comp, kind string, kv ...string) {
	if r == nil {
		return
	}
	var attr map[string]string
	if len(kv) >= 2 {
		attr = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attr[kv[i]] = kv[i+1]
		}
	}
	r.mu.Lock()
	e := Event{Seq: r.seq, T: t, Comp: comp, Kind: kind, Attr: attr}
	r.seq++
	if r.n == len(r.ring) {
		r.drops++
	}
	r.ring[r.next] = e
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	h := fnv.New64a()
	h.Write([]byte(e.canonical()))
	h.Write([]byte{'\n'})
	// Chain the per-event hash into the running digest (order-sensitive).
	r.hash = (r.hash ^ h.Sum64()) * 1099511628211
	r.mu.Unlock()
}

// Total returns how many events have ever been recorded (zero on nil).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped returns how many events aged out of the ring (zero on nil).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drops
}

// Last returns up to n of the most recent events, oldest first (nil on a nil
// recorder). n <= 0 returns everything retained.
func (r *Recorder) Last(n int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]Event, n)
	start := r.next - n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < n; i++ {
		out[i] = r.ring[(start+i)%len(r.ring)]
	}
	return out
}

// Digest returns the running digest over every event ever recorded, as a
// fixed-width hex string. Two runs of the same seeded scenario must produce
// identical digests; a mismatch means the control plane made different
// decisions (or made them in a different order) — the tripwire for
// map-iteration and timing nondeterminism.
func (r *Recorder) Digest() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return strconv.FormatUint(r.hash, 16)
}
