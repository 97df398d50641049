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

func TestMultiCollapses(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no probes must stay nil to keep the fast path")
	}
	a := Func(func(Event) {})
	if got := Multi(nil, a); got == nil {
		t.Fatal("single probe dropped")
	}
}
