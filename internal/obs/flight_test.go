package obs

import (
	"testing"
	"time"
)

func record3(r *Recorder) {
	r.Record(1*time.Second, "controller/msb", "plan", "starts", "4", "available_w", "120000")
	r.Record(2*time.Second, "controller/msb", "override", "rack", "rack001", "amps", "5")
	r.Record(3*time.Second, "guard/msb", "demote", "rack", "rack002", "amps", "1")
}

func TestRecorderRingAndOrder(t *testing.T) {
	r := NewRecorder(2)
	record3(r)
	if r.Total() != 3 || r.Dropped() != 1 {
		t.Fatalf("total %d dropped %d, want 3 and 1", r.Total(), r.Dropped())
	}
	last := r.Last(0)
	if len(last) != 2 {
		t.Fatalf("retained %d events, want 2", len(last))
	}
	if last[0].Kind != "override" || last[1].Kind != "demote" {
		t.Fatalf("retained kinds %s,%s; want override,demote (oldest first)", last[0].Kind, last[1].Kind)
	}
	if last[0].Seq != 1 || last[1].Seq != 2 {
		t.Fatalf("seqs %d,%d; want 1,2", last[0].Seq, last[1].Seq)
	}
	if one := r.Last(1); len(one) != 1 || one[0].Kind != "demote" {
		t.Fatalf("Last(1) = %+v, want the newest event", one)
	}
}

func TestDigestDeterministicAndOrderSensitive(t *testing.T) {
	a, b := NewRecorder(8), NewRecorder(8)
	record3(a)
	record3(b)
	if a.Digest() == "" || a.Digest() != b.Digest() {
		t.Fatalf("digests differ for identical streams: %s vs %s", a.Digest(), b.Digest())
	}
	// Same events, different order: the digest must differ.
	c := NewRecorder(8)
	c.Record(2*time.Second, "controller/msb", "override", "rack", "rack001", "amps", "5")
	c.Record(1*time.Second, "controller/msb", "plan", "starts", "4", "available_w", "120000")
	c.Record(3*time.Second, "guard/msb", "demote", "rack", "rack002", "amps", "1")
	if c.Digest() == a.Digest() {
		t.Fatal("digest ignored event order")
	}
	// The digest covers evicted events too: a tiny ring and a large ring
	// over the same stream agree.
	tiny := NewRecorder(1)
	record3(tiny)
	if tiny.Digest() != a.Digest() {
		t.Fatalf("digest depends on ring capacity: %s vs %s", tiny.Digest(), a.Digest())
	}
}

func TestDigestCoversAttrs(t *testing.T) {
	a, b := NewRecorder(8), NewRecorder(8)
	a.Record(0, "c", "k", "rack", "rack001")
	b.Record(0, "c", "k", "rack", "rack002")
	if a.Digest() == b.Digest() {
		t.Fatal("digest ignored attribute values")
	}
}

func TestRecordOddKVDropsTail(t *testing.T) {
	r := NewRecorder(4)
	r.Record(0, "c", "k", "a", "1", "dangling")
	e := r.Last(1)[0]
	if len(e.Attr) != 1 || e.Attr["a"] != "1" {
		t.Fatalf("attrs = %v, want {a:1}", e.Attr)
	}
}
