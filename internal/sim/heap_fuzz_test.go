package sim

import "testing"

// FuzzEventHeap drives the hand-rolled event heap against a
// linear-scan reference: every pop must return the (time, seq)
// minimum of the elements pushed and not yet popped, every push/pop
// must conserve the element count, and draining the heap must yield a
// nondecreasing (time, seq) sequence.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 2, 0, 4, 5, 1, 0, 1, 0})
	f.Add([]byte{0, 1, 2, 1, 4, 1, 1, 0, 3, 0, 5, 0})
	f.Add([]byte{1, 0, 0, 7, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h eventHeap
		var ref []event
		var seq uint64
		for i := 0; i+1 < len(data); i += 2 {
			op, val := data[i], data[i+1]
			if op%2 == 0 {
				e := event{time: float64(val), seq: seq, ref: int32(op)}
				seq++
				h.push(e)
				ref = append(ref, e)
			} else if h.len() > 0 {
				got := h.pop()
				best := 0
				for j := 1; j < len(ref); j++ {
					if ref[j].time < ref[best].time ||
						(ref[j].time == ref[best].time && ref[j].seq < ref[best].seq) {
						best = j
					}
				}
				if want := ref[best]; got != want {
					t.Fatalf("pop = %+v, want minimum %+v", got, want)
				}
				ref = append(ref[:best], ref[best+1:]...)
			}
			if h.len() != len(ref) {
				t.Fatalf("count diverged: heap %d vs reference %d", h.len(), len(ref))
			}
		}
		prev := event{time: -1}
		drained := 0
		for h.len() > 0 {
			e := h.pop()
			if e.time < prev.time || (e.time == prev.time && e.seq <= prev.seq && drained > 0) {
				t.Fatalf("drain order regressed: %+v after %+v", e, prev)
			}
			prev = e
			drained++
		}
		if drained != len(ref) {
			t.Fatalf("drained %d events, expected the remaining %d", drained, len(ref))
		}
	})
}
