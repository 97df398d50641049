package sim

import (
	"testing"

	"rsin/internal/core"
)

func TestGrantTablePutGetTake(t *testing.T) {
	gt := newGrantTable()
	i := gt.put(core.Grant{Processor: 3, Port: 7}, 1.5)
	if g := gt.get(i); g.Processor != 3 || g.Port != 7 {
		t.Fatalf("get(%d) = %+v", i, g)
	}
	gt.markTx(i, 2.25)
	s := gt.take(i)
	if s.g.Port != 7 || s.arrived != 1.5 || s.txDone != 2.25 {
		t.Fatalf("take(%d) = %+v", i, s)
	}
}

func TestGrantTableReusesFreedSlots(t *testing.T) {
	gt := newGrantTable()
	a := gt.put(core.Grant{Processor: 0}, 0)
	b := gt.put(core.Grant{Processor: 1}, 1)
	gt.release(a)
	// The freed slot must be reused before the table grows.
	c := gt.put(core.Grant{Processor: 2}, 2)
	if c != a {
		t.Errorf("put after take allocated slot %d, want reused slot %d", c, a)
	}
	if len(gt.slots) != 2 {
		t.Errorf("table grew to %d slots for 2 outstanding grants", len(gt.slots))
	}
	if g := gt.get(b); g.Processor != 1 {
		t.Errorf("unrelated slot clobbered: %+v", g)
	}
	if g := gt.get(c); g.Processor != 2 {
		t.Errorf("reused slot holds %+v", g)
	}
}

// TestGrantTablePutClearsRecord requires put to leave nothing of a
// released slot's previous record: the transmission stamp and the
// attribution payload read zero until markTx and setAttr write them.
func TestGrantTablePutClearsRecord(t *testing.T) {
	gt := newGrantTable()
	i := gt.put(core.Grant{Processor: 9, Port: 1, Rejects: 4}, 3)
	gt.markTx(i, 4)
	gt.setAttr(i, 7, 3.5, 1, 2)
	gt.release(i)
	if j := gt.put(core.Grant{Processor: 2}, 5); j != i {
		t.Fatalf("put reused slot %d, want %d", j, i)
	}
	if s := *gt.slot(i); s != (grantSlot{g: core.Grant{Processor: 2}, arrived: 5}) {
		t.Errorf("slot %d after reuse holds %+v", i, s)
	}
}

func TestGrantTableTakeClearsSlot(t *testing.T) {
	gt := newGrantTable()
	i := gt.put(core.Grant{Processor: 9, Port: 1, Rejects: 4}, 3)
	gt.take(i)
	if s := gt.slots[i]; s != (grantSlot{}) {
		t.Errorf("slot %d not cleared after take: %+v", i, s)
	}
}

func TestGrantTableOutstanding(t *testing.T) {
	gt := newGrantTable()
	if gt.outstanding() != 0 {
		t.Fatalf("fresh table outstanding = %d", gt.outstanding())
	}
	a := gt.put(core.Grant{}, 0)
	gt.put(core.Grant{}, 1)
	if gt.outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", gt.outstanding())
	}
	gt.release(a)
	if gt.outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", gt.outstanding())
	}
	// LIFO reuse keeps outstanding consistent across churn.
	for k := 0; k < 100; k++ {
		i := gt.put(core.Grant{Processor: k}, float64(k))
		gt.release(i)
	}
	if gt.outstanding() != 1 {
		t.Fatalf("outstanding after churn = %d, want 1", gt.outstanding())
	}
}
