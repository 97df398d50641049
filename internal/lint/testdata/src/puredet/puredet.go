// Positive fixtures for the puredet analyzer: every determinism hazard
// class it reports, each pinned by a want comment.
package puredet

import "fmt"

var counter int
var registry = map[string]int{}
var totals []int

func bumpCounter() {
	counter++ // want "increments package-level puredet.counter: package-level state is shared across shards"
}

func assignCounter() {
	counter = 7 // want "assigns package-level puredet.counter"
}

func compoundCounter() {
	counter += 2 // want "compound-assigns package-level puredet.counter"
}

func mapWrite(k string) {
	registry[k] = 1 // want "map-writes package-level puredet.registry"
}

func drop(k string) {
	delete(registry, k) // want "deletes from package-level puredet.registry"
}

func appendGlobal(x int) {
	totals = append(totals, x) // want "assigns package-level puredet.totals"
}

func spawn() {
	go bumpCounter() // want "spawns goroutine outside the sanctioned runner pool"
}

func selDefault(ch chan int) {
	select { // want "select with default clause"
	case ch <- 1:
	default:
	}
}

func selMulti(a, b chan int) {
	select { // want "multi-case select"
	case a <- 1:
	case b <- 2:
	}
}

func recv(ch chan int) int {
	return <-ch // want "channel receive"
}

func drain(ch chan int) int {
	s := 0
	for v := range ch { // want "range over channel"
		s += v
	}
	return s
}

// Map iteration order reaching a sink two calls away from the loop: only
// the transitive chain can see it.
func emit(v int) {
	fmt.Println(v)
}

func relay(v int) {
	emit(v)
}

func leakOrder(m map[string]int) {
	for _, v := range m {
		relay(v) // want "map iteration order escapes through call"
	}
}
