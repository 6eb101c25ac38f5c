package netsim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestCalendarOrderingMatchesReference drives the calendar queue with a
// randomized schedule — near-bucket events, far-horizon events, exact ties,
// and re-scheduling from inside callbacks — and checks the execution order
// against a straightforward stable sort by (at, seq).
func TestCalendarOrderingMatchesReference(t *testing.T) {
	type rec struct {
		at Seconds
		id int
	}
	s := New(7)
	rng := rand.New(rand.NewSource(99))

	var want []rec
	var got []rec
	nextID := 0

	schedule := func(at Seconds) {
		id := nextID
		nextID++
		want = append(want, rec{at, id})
		s.At(at, func() {
			got = append(got, rec{at, id})
			// From inside a callback, occasionally schedule follow-ups both
			// within the calendar window and far beyond it.
			if id%5 == 0 && nextID < 3000 {
				d := rng.Float64() * 10
				fid := nextID
				nextID++
				fat := s.Now() + d
				want = append(want, rec{fat, fid})
				s.At(fat, func() { got = append(got, rec{fat, fid}) })
			}
		})
	}

	// Initial schedule: a mix of sub-bucket times, bucket-boundary times,
	// exact duplicates (ties broken by seq), and far-future events well past
	// the 64 s calendar horizon.
	for i := 0; i < 1500; i++ {
		switch i % 4 {
		case 0:
			schedule(rng.Float64() * 2) // dense near-future
		case 1:
			schedule(Seconds(i%32) * calWidth) // exact bucket boundaries, many ties
		case 2:
			schedule(rng.Float64() * 500) // spans several rebases
		case 3:
			schedule(100 + rng.Float64()*1000) // far heap
		}
	}
	s.Run()

	if len(got) != nextID {
		t.Fatalf("executed %d events, scheduled %d", len(got), nextID)
	}
	// Reference order: stable sort by time; equal times keep scheduling
	// order, which is exactly the (at, seq) tie-break.
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got {at=%v id=%d}, want {at=%v id=%d}",
				i, got[i].at, got[i].id, want[i].at, want[i].id)
		}
	}
}

// TestCalendarRunUntilBoundary checks that RunUntil with a deadline between
// events leaves later events queued, including events in the far heap.
func TestCalendarRunUntilBoundary(t *testing.T) {
	s := New(1)
	fired := map[string]bool{}
	s.At(0.5, func() { fired["a"] = true })
	s.At(63.99, func() { fired["b"] = true }) // last near bucket
	s.At(64.01, func() { fired["c"] = true }) // just past the horizon: far heap
	s.At(500, func() { fired["d"] = true })

	s.RunUntil(63.99)
	if !fired["a"] || !fired["b"] || fired["c"] || fired["d"] {
		t.Fatalf("after RunUntil(63.99): %v", fired)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.Run()
	if !fired["c"] || !fired["d"] {
		t.Fatalf("after Run: %v", fired)
	}
	if s.Now() != 500 {
		t.Fatalf("now = %v, want 500", s.Now())
	}
}

// TestCalendarScheduleBeforeBase exercises the clamp path: after a rebase
// triggered by a far-future event, the clock may still trail the calendar
// base, and a callback-free At from model code at now must still order
// correctly against the rebased window.
func TestCalendarScheduleBeforeBase(t *testing.T) {
	s := New(1)
	var order []string
	s.At(200, func() {
		order = append(order, "far")
		// now == 200 == queue base after the rebase; schedule slightly
		// ahead and exactly at now.
		s.At(200, func() { order = append(order, "tie") })
		s.At(200.5, func() { order = append(order, "next") })
	})
	s.Run()
	want := []string{"far", "tie", "next"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestAtCallOrdering checks that AtCall events interleave with At events in
// strict (at, seq) order and deliver their argument.
func TestAtCallOrdering(t *testing.T) {
	s := New(1)
	var order []int
	push := func(arg any) { order = append(order, arg.(int)) }
	s.AtCall(1, push, 1)
	s.At(1, func() { order = append(order, 2) })
	s.AtCall(1, push, 3)
	s.AtCall(0.5, push, 0)
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestTimerStopReleasesCallback pins the Timer.Stop fix: stopping a timer
// must drop the callback reference immediately instead of holding it until
// the original deadline.
func TestTimerStopReleasesCallback(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.AfterTimer(1000, func() { fired = true })
	s.RunUntil(1)
	tm.Stop()
	if tm.fn != nil {
		t.Fatal("Stop did not release the callback reference")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if s.Now() != 1000 {
		t.Fatalf("wrapper event should still advance the clock; now = %v", s.Now())
	}
}

// TestTimerFires checks the positive path after the Stop rework.
func TestTimerFires(t *testing.T) {
	s := New(1)
	fired := false
	s.AfterTimer(5, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("timer did not fire")
	}
}

// TestCalendarMinCacheMatchesReference drives the queue directly with a
// randomized interleaving of pushes, peeks and pops and checks every peek
// and pop against the minimum of a reference multiset ordered by (at,
// seq). The schedule is built to stress the cached active-slot minimum:
// pushes right at the clock, pushes below the cached minimum of the active
// slot, pushes tying an already pending timestamp, and pushes far enough
// out to force rebases.
func TestCalendarMinCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := newEventQueue()
	var (
		pending            []event
		seq                uint64
		now                Seconds
		belowMin, tiesSeen int
	)
	refMin := func() int {
		m := 0
		for i := 1; i < len(pending); i++ {
			if eventLess(&pending[i], &pending[m]) {
				m = i
			}
		}
		return m
	}
	push := func(at Seconds) {
		seq++
		e := event{at: at, seq: seq}
		idx := int((at - q.base) * calInvWidth)
		if at < q.limit && idx <= q.cur && q.curMin >= 0 && eventLess(&e, &q.near[q.cur][q.curMin]) {
			belowMin++
		}
		for i := range pending {
			if pending[i].at == at {
				tiesSeen++
				break
			}
		}
		q.push(e)
		pending = append(pending, e)
	}
	check := func(step int, got event, op string) {
		t.Helper()
		want := pending[refMin()]
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("step %d %s: got {at=%v seq=%d}, want {at=%v seq=%d}", step, op, got.at, got.seq, want.at, want.seq)
		}
	}
	for step := 0; step < 100000; step++ {
		r := rng.Intn(10)
		if len(pending) > 400 {
			r = 9
		}
		switch {
		case r < 5:
			switch rng.Intn(5) {
			case 0:
				push(now)
			case 1:
				// Quantized near-future times: many land in the active slot,
				// below its cached minimum, or on each other.
				push(now + Seconds(rng.Intn(8))/128)
			case 2:
				if len(pending) > 0 {
					push(pending[rng.Intn(len(pending))].at)
				} else {
					push(now)
				}
			case 3:
				push(now + rng.Float64()*8)
			default:
				push(now + 60 + rng.Float64()*200)
			}
		case r < 7:
			at, ok := q.peekAt()
			if ok != (len(pending) > 0) {
				t.Fatalf("step %d: peekAt ok=%v with %d pending", step, ok, len(pending))
			}
			if ok {
				check(step, event{at: at, seq: pending[refMin()].seq}, "peek")
			}
		default:
			if len(pending) == 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				q.peekAt() // the RunUntil pattern: peek, then pop
			}
			e := q.pop()
			check(step, e, "pop")
			m := refMin()
			pending = append(pending[:m], pending[m+1:]...)
			now = e.at
		}
		if q.len() != len(pending) {
			t.Fatalf("step %d: queue holds %d events, reference %d", step, q.len(), len(pending))
		}
	}
	for len(pending) > 0 {
		check(-1, q.pop(), "drain")
		m := refMin()
		pending = append(pending[:m], pending[m+1:]...)
	}
	if belowMin < 100 || tiesSeen < 100 {
		t.Fatalf("schedule too tame: %d pushes below the cached minimum, %d timestamp ties", belowMin, tiesSeen)
	}
	t.Logf("%d pushes below the cached minimum, %d timestamp ties", belowMin, tiesSeen)
}
