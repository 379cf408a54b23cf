package main

import (
	"fmt"
	"strings"
	"time"

	"weakorder/internal/campaign"
)

// layerMetrics lists every per-layer metric in report order, with its unit.
// A traced run reports all of them; a layer the workload never calls reads
// 0. BENCHMARK.json's per_layer list mirrors this table.
var layerMetrics = []struct{ name, unit string }{
	{"explore.states", "count"},
	{"explore.states_per_s", "1/s"},
	{"explore.bytes_per_state", "B"},
	{"explore.allocs_per_state", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"core.drf0_ms", "ms/call"},
	{"core.executions", "count"},
	{"model.sc_ms", "ms/call"},
	{"model.WO-def1_ms", "ms/call"},
	{"model.WO-def2_ms", "ms/call"},
	{"model.WO-def2-drf1_ms", "ms/call"},
	{"model.RP3-fence_ms", "ms/call"},
	{"model.bus-writebuffer_ms", "ms/call"},
	{"model.bus-cache-writebuffer_ms", "ms/call"},
	{"model.network-nocache_ms", "ms/call"},
	{"model.tso_ms", "ms/call"},
	{"model.pso_ms", "ms/call"},
	{"model.rmo_ms", "ms/call"},
	{"par.busy_cores", "count"},
	{"campaign.key_us", "us/call"},
	{"campaign.store_get_us", "us/call"},
	{"campaign.store_put_us", "us/call"},
	{"campaign.verdict_decode_us", "us/call"},
	{"campaign.skipped_frac", "frac"},
	{"program.parse_us", "us/call"},
	{"http.overhead_us", "us/call"},
	{"openloop.gen_ns_per_op", "ns/op"},
	{"openloop.compile_ns_per_op", "ns/op"},
	{"tracefmt.encode_ns_per_op", "ns/op"},
	{"tracefmt.decode_ns_per_op", "ns/op"},
	{"tracefmt.bytes_per_op", "B"},
	{"machine.host_ns_per_op", "ns/op"},
	{"machine.sim_cycles", "count"},
	{"machine.messages_per_op", "count"},
	{"machine.host_ns_per_message", "ns/op"},
	{"machine.cache_hits", "count"},
	{"machine.cache_misses", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.unaccounted_frac", "frac"},
}

// zeroLayers reports every per-layer metric as 0, in table order; the traced
// run then overwrites the layers its workload calls.
func zeroLayers(r *result) {
	for _, m := range layerMetrics {
		r.set(m.name, 0, m.unit)
	}
}

// setRuntimeLayers reports the runtime, par and allocation metrics of an
// untraced interval over ops operations that explored states states.
// Allocations are process-wide, so bytes and objects per state include
// everything else the interval allocated.
func setRuntimeLayers(r *result, d rtDelta, ops int, states int64) {
	r.set("runtime.gc_cycles_per_op", d.gcCycles/float64(ops), "count")
	r.set("runtime.gc_cpu_frac", d.gcCPUFrac, "frac")
	r.set("par.busy_cores", d.cpu.Seconds()/d.wall.Seconds(), "count")
	if states > 0 {
		r.set("explore.bytes_per_state", d.allocBytes/float64(states), "B")
		r.set("explore.allocs_per_state", d.allocObjs/float64(states), "count")
	}
}

// spanSlack absorbs clock granularity when stage spans are compared with
// the interval that contains them.
const spanSlack = time.Microsecond

// checkSpans reports a verdict whose stage spans add up to more than its
// end-to-end time: the spans are disjoint sub-intervals of it, so anything
// else is a measurement error. What they leave unaccounted is reported as a
// metric, not checked.
func checkSpans(sp stageSpans) string {
	if acc := sp.accounted(); acc > sp.total+spanSlack {
		return fmt.Sprintf("stage spans sum to %v, more than the verdict's %v", acc, sp.total)
	}
	return ""
}

// unaccounted is the share of total the spans did not cover.
func unaccounted(total, accounted time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(total-accounted) / float64(total)
}

// compareVerdicts reports how two verdicts differ, or "" when they agree.
// States is compared only when withStates is set: the parallel kernel's
// state count under partial-order reduction depends on scheduling, while
// every verdict field is width-independent.
func compareVerdicts(a, b campaign.Verdict, withStates bool) string {
	var diffs []string
	if a.DRF0 != b.DRF0 {
		diffs = append(diffs, fmt.Sprintf("drf0 %v vs %v", a.DRF0, b.DRF0))
	}
	if a.Skipped != b.Skipped {
		diffs = append(diffs, fmt.Sprintf("skipped %v vs %v", a.Skipped, b.Skipped))
	}
	if a.SCOutcomes != b.SCOutcomes {
		diffs = append(diffs, fmt.Sprintf("sc_outcomes %d vs %d", a.SCOutcomes, b.SCOutcomes))
	}
	if a.RacyNonSC != b.RacyNonSC {
		diffs = append(diffs, fmt.Sprintf("racy_non_sc %v vs %v", a.RacyNonSC, b.RacyNonSC))
	}
	if strings.Join(a.Violating, ",") != strings.Join(b.Violating, ",") {
		diffs = append(diffs, fmt.Sprintf("violating %v vs %v", a.Violating, b.Violating))
	}
	if len(a.Reproducers) != 0 || len(b.Reproducers) != 0 {
		diffs = append(diffs, "unexpected reproducers")
	}
	if withStates && a.States != b.States {
		diffs = append(diffs, fmt.Sprintf("states %d vs %d", a.States, b.States))
	}
	return strings.Join(diffs, "; ")
}
