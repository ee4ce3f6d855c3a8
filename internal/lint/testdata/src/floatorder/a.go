// Fixture for maporder's order-tainted half: float accumulation over a
// slice whose element order is nondeterministic (per detflow's order
// taint) is as replay-breaking as summing over the map directly — float
// addition is not associative. Sorting first cleanses. The map-range half
// reports the two loops that range over the map itself.
package floatorder

import "sort"

// values collects a map's values in iteration order: the returned slice
// is order-tainted.
func values(m map[string]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v) // want "append to \"out\" inside a map-range loop"
	}
	return out
}

func sumUnsorted(m map[string]float64) float64 {
	vs := values(m)
	var sum float64
	for _, v := range vs {
		sum += v // want `floating-point accumulation into "sum" over a collection whose order is nondeterministic`
	}
	return sum
}

func sumSorted(m map[string]float64) float64 {
	vs := values(m)
	sort.Float64s(vs)
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum
}

// sumDirect ranges the map itself: the map-range check reports it once,
// and the order-tainted check stays quiet.
func sumDirect(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v // want "floating-point accumulation into \"sum\" inside a map-range loop"
	}
	return sum
}
