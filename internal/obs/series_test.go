package obs

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestSeriesRecorderSamplesPiecewiseState(t *testing.T) {
	s := NewSeriesRecorder(2, 1)
	// t=0.5: task arrives at pid 0 (queued 1, blocked 1).
	s.Event(Event{T: 0.5, Kind: KindEnqueue, Pid: 0, Aux: 1})
	// t=0.5: it starts transmitting (queued 0, busy 1, blocked 0).
	s.Event(Event{T: 0.5, Kind: KindTransmitStart, Pid: 0, Port: 0})
	// t=1.5: a second task queues behind the transmission on pid 0
	// (transmitting, so not a blocked waiter) and one queues on the
	// idle pid 1 (blocked waiter).
	s.Event(Event{T: 1.5, Kind: KindEnqueue, Pid: 0, Aux: 2})
	s.Event(Event{T: 1.5, Kind: KindEnqueue, Pid: 1, Aux: 1})
	// t=2.5: pid 0 finishes transmitting; its queued task now blocks.
	s.Event(Event{T: 2.5, Kind: KindTransmitEnd, Pid: 0, Port: 0})
	// t=3.5: service completes.
	s.Event(Event{T: 3.5, Kind: KindRelease, Pid: 0, Port: 0})

	series := s.Finish("run", 4)
	if series.Schema != SeriesSchema || series.Dt != 1 {
		t.Fatalf("series header %+v", series)
	}
	// Grid ticks 0,1,2,3,4 — the closing tick at simTime included.
	if series.Len() != 5 {
		t.Fatalf("got %d samples, want 5", series.Len())
	}
	wantQ := []float64{0, 0, 2, 2, 2}
	wantB := []float64{0, 1, 1, 1, 0} // still in service at tick 3; released at 3.5
	wantW := []float64{0, 0, 1, 2, 2}
	for i := range wantQ {
		if series.QueueLen[i] != wantQ[i] || series.BusyPorts[i] != wantB[i] || series.BlockedWaiters[i] != wantW[i] {
			t.Fatalf("tick %d: q=%g b=%g w=%g, want q=%g b=%g w=%g",
				i, series.QueueLen[i], series.BusyPorts[i], series.BlockedWaiters[i],
				wantQ[i], wantB[i], wantW[i])
		}
	}
}

func TestSeriesRecorderTickAtEventInstantSamplesPostState(t *testing.T) {
	s := NewSeriesRecorder(1, 1)
	// An event exactly on a grid tick: the tick must sample the state
	// after every same-instant event, not a torn mid-cascade view.
	s.Event(Event{T: 1, Kind: KindEnqueue, Pid: 0, Aux: 1})
	s.Event(Event{T: 1, Kind: KindTransmitStart, Pid: 0, Port: 0})
	s.Event(Event{T: 2.5, Kind: KindTransmitEnd, Pid: 0, Port: 0})
	series := s.Finish("", 3)
	// Ticks 0..3: tick 1 sees the post-cascade state (busy, not queued).
	if series.Len() != 4 {
		t.Fatalf("got %d samples, want 4", series.Len())
	}
	if series.QueueLen[1] != 0 || series.BusyPorts[1] != 1 || series.BlockedWaiters[1] != 0 {
		t.Fatalf("tick 1 sampled a torn state: q=%g b=%g w=%g",
			series.QueueLen[1], series.BusyPorts[1], series.BlockedWaiters[1])
	}
}

func TestSeriesRecorderZeroAlloc(t *testing.T) {
	s := NewSeriesRecorder(4, 0.25)
	s.Reserve(1 << 16)
	var tick float64
	allocs := testing.AllocsPerRun(2000, func() {
		s.Event(Event{T: tick, Kind: KindEnqueue, Pid: 1, Aux: 1})
		s.Event(Event{T: tick, Kind: KindTransmitStart, Pid: 1, Port: 2})
		tick += 0.5
		s.Event(Event{T: tick, Kind: KindTransmitEnd, Pid: 1, Port: 2})
		s.Event(Event{T: tick, Kind: KindRelease, Pid: 1, Port: 2})
		tick += 0.5
	})
	if allocs != 0 {
		t.Fatalf("SeriesRecorder.Event allocates %.1f per call", allocs)
	}
}

func TestSeriesRoundTripAndBytes(t *testing.T) {
	build := func() []Series {
		s := NewSeriesRecorder(1, 0.5)
		s.Event(Event{T: 0.25, Kind: KindEnqueue, Pid: 0, Aux: 1})
		s.Event(Event{T: 0.25, Kind: KindTransmitStart, Pid: 0, Port: 0})
		s.Event(Event{T: 1.75, Kind: KindTransmitEnd, Pid: 0, Port: 0})
		s.Event(Event{T: 2.25, Kind: KindRelease, Pid: 0, Port: 0})
		return []Series{s.Finish("rep0", 2.5)}
	}
	var b1, b2 bytes.Buffer
	if err := WriteSeries(&b1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeries(&b2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("equal series serialized to different bytes")
	}
	got, err := ReadSeries(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Label != "rep0" || got[0].Len() != 6 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := ReadSeries(bytes.NewBufferString(`{"schema":"nope","runs":[]}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestSeriesRecorderRejectsBadDt(t *testing.T) {
	for _, dt := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("dt=%g: no panic", dt)
				}
				if err, ok := r.(error); !ok || !errors.Is(err, ErrNonFiniteMetric) {
					t.Fatalf("dt=%g: panic %v does not wrap ErrNonFiniteMetric", dt, r)
				}
			}()
			NewSeriesRecorder(1, dt)
		}()
	}
}
