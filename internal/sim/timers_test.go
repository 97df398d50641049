package sim

import (
	"math"
	"slices"
	"testing"
)

// scanMin is the reference the tree must agree with: the armed slot of
// least (time, seq) by a linear scan, or -1 when none is armed.
func scanMin(armed []bool, times []float64, seqs []uint64) int {
	best := -1
	for slot, on := range armed {
		if !on {
			continue
		}
		if best < 0 || times[slot] < times[best] ||
			(times[slot] == times[best] && seqs[slot] < seqs[best]) {
			best = slot
		}
	}
	return best
}

// drain fires the tree's events in order, disarming each, and returns
// the slots in firing order.
func drain(q *timerTree) []int {
	var order []int
	for q.armed > 0 {
		slot := q.next()
		order = append(order, slot)
		q.disarm(slot)
	}
	return order
}

func TestTimerTreeSeqTieBreak(t *testing.T) {
	q := newTimerTree(8)
	// Equal times, armed in an order unrelated to the slot numbers: the
	// seq stamped at arming decides.
	slots := []int{5, 2, 7, 0, 3}
	for seq, slot := range slots {
		q.arm(slot, 1, uint64(seq), evArrival)
	}
	if got := drain(&q); !slices.Equal(got, slots) {
		t.Fatalf("firing order %v, want arming order %v", got, slots)
	}
}

func TestTimerTreeNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// -0 and +0 are equal times, so seq decides whichever sign the
	// earlier event carries; -0's bits must not sort it last.
	for _, c := range []struct{ first, second float64 }{{negZero, 0}, {0, negZero}} {
		q := newTimerTree(2)
		q.arm(1, c.first, 0, evArrival)
		q.arm(0, c.second, 1, evArrival)
		if slot := q.next(); slot != 1 {
			t.Errorf("times %g then %g: root is slot %d, want the earlier seq's slot 1", c.first, c.second, slot)
		}
		// The stored time stays bit-exact for the clock.
		if math.Signbit(q.time[1]) != math.Signbit(c.first) || math.Signbit(q.time[0]) != math.Signbit(c.second) {
			t.Errorf("stored times %g, %g lost their signs", q.time[1], q.time[0])
		}
	}
	// Any positive time still follows both zeros.
	q := newTimerTree(2)
	q.arm(0, math.SmallestNonzeroFloat64, 0, evArrival)
	q.arm(1, negZero, 1, evArrival)
	if slot := q.next(); slot != 1 {
		t.Errorf("root is slot %d, want the -0 slot 1 ahead of the smallest positive time", slot)
	}
}

func TestTimerTreeRearmRoot(t *testing.T) {
	q := newTimerTree(4)
	q.arm(0, 1, 0, evArrival)
	q.arm(1, 2, 1, evArrival)
	q.arm(2, 3, 2, evArrival)
	// The root re-armed past the others falls behind them.
	q.arm(0, 2.5, 3, evArrival)
	if slot := q.next(); slot != 1 {
		t.Fatalf("root is slot %d after re-arming slot 0 at 2.5, want 1", slot)
	}
	// Re-armed ahead of everyone, a slot becomes the root again, and
	// re-arming never changes the armed count.
	q.arm(2, 0.5, 4, evTxDone)
	if slot := q.next(); slot != 2 || q.kind[2] != evTxDone || q.time[2] != 0.5 {
		t.Fatalf("root is slot %d (kind %d, time %g), want slot 2 at 0.5", slot, q.kind[slot], q.time[slot])
	}
	if q.armed != 3 {
		t.Fatalf("armed = %d after re-arming, want 3", q.armed)
	}
	if got, want := drain(&q), []int{2, 1, 0}; !slices.Equal(got, want) {
		t.Fatalf("firing order %v, want %v", got, want)
	}
}

func TestTimerTreeDisarmAll(t *testing.T) {
	const n = 16
	q := newTimerTree(n)
	for slot := 0; slot < n; slot++ {
		q.arm(slot, float64(n-slot), uint64(slot), evSvcDone)
	}
	// Disarm in an order that takes the root first, then from the
	// middle, so every disarm replays a different path.
	for _, slot := range []int{15, 0, 8, 7, 14, 1, 9, 6, 13, 2, 10, 5, 12, 3, 11, 4} {
		if !q.armedAt(slot) {
			t.Fatalf("slot %d reads disarmed before its disarm", slot)
		}
		q.disarm(slot)
		if q.armedAt(slot) {
			t.Fatalf("slot %d still reads armed", slot)
		}
		if err := q.check(); err != nil {
			t.Fatal(err)
		}
	}
	if q.armed != 0 {
		t.Fatalf("armed = %d after disarming every slot, want 0", q.armed)
	}
	// The emptied tree takes new events as a fresh one does.
	q.arm(3, 7, 99, evArrival)
	if q.next() != 3 || q.armed != 1 {
		t.Fatalf("re-armed slot 3: root %d, armed %d", q.next(), q.armed)
	}
}

func TestTimerTreeGrowth(t *testing.T) {
	q := newTimerTree(3)
	if q.n != 4 {
		t.Fatalf("newTimerTree(3) has %d leaves, want 4", q.n)
	}
	q.arm(0, 5, 0, evArrival)
	q.arm(3, 2, 1, evTxDone)
	// A slot past the leaves doubles the tree until it fits, keeping
	// the armed slots and their keys.
	q.arm(9, 3, 2, evSvcDone)
	if q.n != 16 {
		t.Fatalf("leaves = %d after arming slot 9, want 16", q.n)
	}
	if err := q.check(); err != nil {
		t.Fatal(err)
	}
	if q.armed != 3 || q.next() != 3 {
		t.Fatalf("armed %d, root %d after growth; want 3 armed, root slot 3", q.armed, q.next())
	}
	if q.time[0] != 5 || q.kind[0] != evArrival || q.time[9] != 3 || q.kind[9] != evSvcDone {
		t.Fatalf("growth lost a slot's event: slot 0 (%g, %d), slot 9 (%g, %d)", q.time[0], q.kind[0], q.time[9], q.kind[9])
	}
	if got, want := drain(&q), []int{3, 9, 0}; !slices.Equal(got, want) {
		t.Fatalf("firing order %v, want %v", got, want)
	}
}

// FuzzTimerTree drives the tree through decoded arm, disarm and
// advance operations against a linear-scan reference over (time, seq).
// Slots range past the initial leaves, so growth happens while slots
// are armed. After every operation the root must be the reference
// minimum, with its stored time and kind, and the armed counts must
// agree. An advance fires the root the way the kernel does: it re-arms
// the root's slot later, or disarms it.
func FuzzTimerTree(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(4), []byte{0, 3, 10, 0, 1, 10, 2, 0, 5, 1, 1, 0, 2, 0, 0})
	f.Add(uint8(2), []byte{0, 0, 0, 4, 1, 0, 0, 40, 2, 2, 0, 7, 1, 40, 0})
	f.Add(uint8(8), []byte{0, 5, 1, 0, 6, 1, 0, 7, 1, 5, 0, 0, 2, 0, 3, 2, 0, 0})
	f.Fuzz(func(t *testing.T, leaves uint8, data []byte) {
		q := newTimerTree(int(leaves % 16))
		var (
			armed []bool
			times []float64
			seqs  []uint64
			kinds []eventKind
			seq   uint64
		)
		set := func(slot int, tm float64, kind eventKind) {
			for len(armed) <= slot {
				armed = append(armed, false)
				times = append(times, 0)
				seqs = append(seqs, 0)
				kinds = append(kinds, 0)
			}
			q.arm(slot, tm, seq, kind)
			armed[slot], times[slot], seqs[slot], kinds[slot] = true, tm, seq, kind
			seq++
		}
		count := 0
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i]%3, int(data[i+1]), data[i+2]
			switch op {
			case 0: // arm slot a at time b/2, or at -0 for b = 1
				tm := float64(b / 2)
				if b == 1 {
					tm = math.Copysign(0, -1)
				}
				if a >= len(armed) || !armed[a] {
					count++
				}
				set(a, tm, eventKind(b%3))
			case 1: // disarm slot a when armed
				if a < len(armed) && armed[a] {
					q.disarm(a)
					armed[a] = false
					count--
				}
			case 2: // advance: fire the root
				if count == 0 {
					break
				}
				slot := q.next()
				if b%4 == 3 {
					q.disarm(slot)
					armed[slot] = false
					count--
				} else {
					set(slot, times[slot]+float64(b), kinds[slot])
				}
			}
			if q.armed != count {
				t.Fatalf("op %d: tree counts %d armed, reference %d", i/3, q.armed, count)
			}
			for slot, on := range armed {
				if q.armedAt(slot) != on {
					t.Fatalf("op %d: slot %d armedAt = %v, reference %v", i/3, slot, !on, on)
				}
			}
			want := scanMin(armed, times, seqs)
			if want < 0 {
				continue
			}
			got := q.next()
			if got != want {
				t.Fatalf("op %d: root is slot %d (%g, seq %d), reference minimum is slot %d (%g, seq %d)",
					i/3, got, q.time[got], seqs[got], want, times[want], seqs[want])
			}
			if math.Float64bits(q.time[got]) != math.Float64bits(times[want]) || q.kind[got] != kinds[want] {
				t.Fatalf("op %d: root slot %d holds (%g, kind %d), reference (%g, kind %d)",
					i/3, got, q.time[got], q.kind[got], times[want], kinds[want])
			}
		}
	})
}
