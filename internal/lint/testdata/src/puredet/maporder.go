// Map-order fixtures: a loop over a map must not leak Go's randomized
// iteration order into an accumulated slice or an output stream. The
// Bad cases are reported at the leaking statement; the Good cases are
// idioms puredet must stay silent on.
package puredet

import (
	"fmt"
	"sort"
	"strings"
)

// BadAppend accumulates map keys with no subsequent sort.
func BadAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "map iteration order leaks: appends to keys inside range over map without a subsequent sort"
	}
	return keys
}

// GoodAppendSorted collects then sorts — the canonical idiom.
func GoodAppendSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GoodSortSlice sorts the accumulated value with sort.Slice.
func GoodSortSlice(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// BadPrint emits output in map order.
func BadPrint(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "map iteration order leaks: prints via fmt\.Printf inside range over map"
	}
}

// BadBuilder streams into an outer writer in map order.
func BadBuilder(m map[string]int, sb *strings.Builder) {
	for k := range m {
		sb.WriteString(k) // want "map iteration order leaks: writes via sb\.WriteString inside range over map"
	}
}

// BadTwice leaks the order through two statements of one loop; each is
// reported.
func BadTwice(m map[string]int, sb *strings.Builder) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "map iteration order leaks: appends to keys"
		sb.WriteByte('k')      // want "map iteration order leaks: writes via sb\.WriteByte"
	}
	return keys
}

// init may write package-level state, but map iteration order still
// changes from one process to the next, so filling a global slice in
// map order is a leak even here.
func init() {
	for _, v := range registry {
		totals = append(totals, v) // want "map iteration order leaks: writes package-level puredet.totals inside range over map"
	}
}

// GoodLocalAppend appends only to a loop-local slice, which cannot
// carry iteration order out of the loop on its own.
func GoodLocalAppend(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// GoodSliceRange ranges over a slice, which is ordered.
func GoodSliceRange(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// GoodClosureSorted sorts within the same closure body — the check
// scopes its search to the enclosing function literal.
var GoodClosureSorted = func(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GoodMapWrite writes into another map, which is order-independent.
func GoodMapWrite(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = v + 1
	}
	return out
}
