package obs

import (
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.Contains(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind renders %q", got)
	}
}

func TestMultiFansOutInOrder(t *testing.T) {
	var order []string
	a := Func(func(e Event) { order = append(order, "a") })
	b := Func(func(e Event) { order = append(order, "b") })
	p := Multi(nil, a, nil, b)
	p.Event(Event{Kind: KindArrival})
	if got := strings.Join(order, ""); got != "ab" {
		t.Fatalf("fan-out order %q, want ab", got)
	}
}

// TestMultiCollapses: no usable probe gives nil, and one comes back
// itself, so its declared set reaches the engine unchanged, the empty
// set included.
func TestMultiCollapses(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no probes must stay nil to keep the fast path")
	}
	a := Func(func(Event) {})
	if got := Multi(nil, a); got == nil {
		t.Fatal("single probe dropped")
	}
	var log []string
	none := declared{"none", 0, &log}
	if p := Multi(nil, none, nil); p != Probe(none) || KindsOf(p) != 0 {
		t.Fatalf("Multi(nil, p, nil) = %v declaring %#x, want p declaring the empty set", p, KindsOf(p))
	}
	q := Multi(none, declared{"none2", 0, &log})
	if KindsOf(q) != 0 {
		t.Fatalf("Multi of empty sets declares %#x", KindsOf(q))
	}
	for k := Kind(0); k < numKinds; k++ {
		q.Event(Event{Kind: k})
	}
	if len(log) != 0 {
		t.Fatalf("probes that read no kind received %v", log)
	}
}

// declared is a probe that reads only the kinds in set and logs each
// event it receives as "name:kind".
type declared struct {
	name string
	set  KindSet
	log  *[]string
}

func (d declared) Kinds() KindSet { return d.set }

func (d declared) Event(e Event) { *d.log = append(*d.log, d.name+":"+e.Kind.String()) }

func TestKindSet(t *testing.T) {
	s := KindSetOf(KindArrival, KindComplete)
	for k := Kind(0); k < numKinds; k++ {
		if want := k == KindArrival || k == KindComplete; s.Has(k) != want {
			t.Errorf("KindSetOf(arrival, complete).Has(%v) = %v", k, !want)
		}
		if !AllKinds.Has(k) {
			t.Errorf("AllKinds lacks %v", k)
		}
	}
	if KindSetOf() != 0 || KindSet(0).Has(KindArrival) {
		t.Error("the empty set holds a kind")
	}
}

func TestKindsOf(t *testing.T) {
	var log []string
	for _, tc := range []struct {
		name string
		p    Probe
		want KindSet
	}{
		{"nil", nil, 0},
		{"Func", Func(func(Event) {}), AllKinds},
		{"declared", declared{"d", KindSetOf(KindGrant), &log}, KindSetOf(KindGrant)},
		{"empty", declared{"e", 0, &log}, 0},
		{"attribution", NewAttrRecorder(1), KindSetOf(KindComplete)},
		{"series", NewSeriesRecorder(1, 1),
			KindSetOf(KindEnqueue, KindTransmitStart, KindTransmitEnd, KindRelease)},
		{"trace", NewTrace(),
			KindSetOf(KindArrival, KindGrant, KindTransmitStart, KindTransmitEnd, KindRelease, KindReject)},
	} {
		if got := KindsOf(tc.p); got != tc.want {
			t.Errorf("KindsOf(%s) = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestMultiRoutesByKind feeds one event of every kind through a Multi
// and checks each child received exactly its kinds, children in
// argument order within each event. The nested Multi must route by its
// own children's kinds and declare their union.
func TestMultiRoutesByKind(t *testing.T) {
	var log []string
	arr := declared{"arr", KindSetOf(KindArrival), &log}
	done := declared{"done", KindSetOf(KindComplete), &log}
	none := declared{"none", 0, &log}
	all := Func(func(e Event) { log = append(log, "all:"+e.Kind.String()) })
	inner := Multi(arr, nil, done)
	if got, want := KindsOf(inner), KindSetOf(KindArrival, KindComplete); got != want {
		t.Fatalf("inner Multi declares %#x, want the union %#x", got, want)
	}
	p := Multi(none, inner, nil, all)
	if KindsOf(p) != AllKinds {
		t.Fatalf("Multi with a Func declares %#x, want AllKinds", KindsOf(p))
	}
	for k := Kind(0); k < numKinds; k++ {
		p.Event(Event{Kind: k})
	}
	want := []string{
		"arr:arrival", "all:arrival",
		"all:enqueue", "all:grant", "all:transmit-start", "all:transmit-end",
		"all:release", "all:reject",
		"done:complete", "all:complete",
	}
	if got := strings.Join(log, " "); got != strings.Join(want, " ") {
		t.Fatalf("routed\n%s\nwant\n%s", got, strings.Join(want, " "))
	}
}
