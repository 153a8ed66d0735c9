package main

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/trace"
)

// metric is one reported number's name and unit. BENCHMARK.json
// lists the same metrics with their direction and, for end-to-end
// ones, their regression bound; TestBenchmarkJSON keeps the two in step.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees, printed with
// --trace 0. The host metrics (the first six) are medians over the
// measured runs or set-up probes; the last four are seed-pure: equal
// in every run of a seed.
var endToEnd = []metric{
	{"ac2t_per_s", "AC2T/s"},
	{"cpu_ms_per_ac2t", "ms"},
	{"allocs_per_ac2t", "count"},
	{"alloc_bytes_per_ac2t", "bytes"},
	{"peak_heap_mib", "MiB"},
	{"setup_s", "s"},
	{"latency_p50_vs", "virtual_s"},
	{"latency_p99_vs", "virtual_s"},
	{"chain_txs_per_ac2t", "txs"},
	{"settled_share", "fraction"},
}

// seedPureLayer are the per-layer counters read from the engine
// aggregate of the untraced runs; they must repeat exactly. The
// protocol phase latencies are those of the commit scenario.
func seedPureLayer() []metric {
	ms := []metric{
		{name: "sim.events_per_ac2t", unit: "count"},
		{name: "chain.blocks_mined_per_ac2t", unit: "count"},
		{name: "chain.blocks_executed_per_ac2t", unit: "count"},
		{name: "chain.exec_hit_rate", unit: "ratio"},
		{name: "chain.state_replays_per_ac2t", unit: "count"},
		{name: "chain.states_pruned_per_ac2t", unit: "count"},
		{name: "chain.forks_observed", unit: "count"},
		{name: "contracts.deploys_per_ac2t", unit: "count"},
		{name: "contracts.calls_per_ac2t", unit: "count"},
		{name: "core.witness_txs_per_commit", unit: "txs"},
		{name: "core.witness_bytes_per_commit", unit: "bytes"},
		{name: "batch.batches", unit: "count"},
		{name: "batch.decisions_per_batch", unit: "count"},
		{name: "batch.republishes", unit: "count"},
		{name: "p2p.msgs_dropped", unit: "count"},
		{name: "engine.expiry_hazard_ac2ts", unit: "count"},
	}
	for _, ph := range trace.Phases {
		ms = append(ms,
			metric{name: "protocol." + ph + ".p50_vs", unit: "virtual_s"},
			metric{name: "protocol." + ph + ".p99_vs", unit: "virtual_s"})
	}
	return ms
}

// tracedLayer are the per-layer metrics of the profiled run.
func tracedLayer() []metric {
	ms := []metric{{name: "cpu.total_ms_per_ac2t", unit: "ms"}}
	for _, l := range selfLayers {
		ms = append(ms, metric{name: "cpu." + l + ".self_ms_per_ac2t", unit: "ms"})
	}
	for _, e := range entryPoints {
		ms = append(ms, metric{name: "call." + e.pkg + "." + e.fn + ".ms_per_ac2t", unit: "ms"})
	}
	return append(ms,
		metric{name: "cpu.alloc_ms_per_ac2t", unit: "ms"},
		metric{name: "trace.overhead_pct", unit: "%"})
}

// perLayer are the metrics printed with --trace 1.
func perLayer() []metric { return append(seedPureLayer(), tracedLayer()...) }

// seedPure computes every seed-pure metric, end-to-end and per-layer,
// from one run's aggregate.
func seedPure(w workload, agg *engine.Aggregate) map[string]float64 {
	graded := float64(agg.Graded)
	per := func(n float64) float64 { return ratio(n, graded) }
	_, hazard := failures(w, agg)
	m := map[string]float64{
		"latency_p50_vs":     float64(agg.LatencyP50Ms) / 1000,
		"latency_p99_vs":     float64(agg.LatencyP99Ms) / 1000,
		"chain_txs_per_ac2t": per(float64(agg.Deploys + agg.Calls + agg.BatchesPublished)),
		"settled_share":      ratio(float64(agg.Commits+agg.Aborts), float64(agg.Txs)),

		"sim.events_per_ac2t":            per(float64(agg.SimEvents)),
		"chain.blocks_mined_per_ac2t":    per(float64(agg.BlocksMined)),
		"chain.blocks_executed_per_ac2t": per(float64(agg.BlocksExecuted)),
		"chain.exec_hit_rate":            agg.ExecHitRate,
		"chain.state_replays_per_ac2t":   per(float64(agg.StateReplays)),
		"chain.states_pruned_per_ac2t":   per(float64(agg.StatesPruned)),
		"chain.forks_observed":           float64(agg.ForksObserved),
		"contracts.deploys_per_ac2t":     per(float64(agg.Deploys)),
		"contracts.calls_per_ac2t":       per(float64(agg.Calls)),
		"core.witness_txs_per_commit":    agg.WitnessTxsPerCommit,
		"core.witness_bytes_per_commit":  agg.WitnessBytesPerCommit,
		"batch.batches":                  float64(agg.BatchesPublished),
		"batch.decisions_per_batch":      ratio(float64(agg.BatchDecisions), float64(agg.BatchesPublished)),
		"batch.republishes":              float64(agg.BatchRepublishes),
		"p2p.msgs_dropped":               float64(agg.MsgsDropped),
		"engine.expiry_hazard_ac2ts":     float64(hazard),
	}
	for _, ph := range trace.Phases {
		m["protocol."+ph+".p50_vs"] = 0
		m["protocol."+ph+".p99_vs"] = 0
	}
	for _, row := range agg.PhaseLatency {
		if row.Scenario == engine.ScenarioCommit {
			m["protocol."+row.Phase+".p50_vs"] = float64(row.P50Ms) / 1000
			m["protocol."+row.Phase+".p99_vs"] = float64(row.P99Ms) / 1000
		}
	}
	return m
}

// failures splits a run's unsettled AC2Ts (neither committed nor
// aborted: ungraded, stuck at the deadline, or graded with an
// atomicity violation, which leaves an AC2T neither) into failures and
// the HTLC expiry hazard. HTLC is atomic only if every redemption
// confirms before its timelock expires. A participant that crashes
// mid-reveal (the paper's Section 1 case, the crash scenario) or a
// redemption slowed by forks leaves the AC2T stuck past a timelock:
// the baseline protocol's expected outcome, not a fault of the engine.
// So every graded but unsettled HTLC AC2T is hazard, and only an
// ungraded one fails.
func failures(w workload, agg *engine.Aggregate) (failed, hazard int) {
	unsettled := agg.Txs - agg.Commits - agg.Aborts
	if w.protocol == engine.ProtoHTLC {
		hazard = agg.Stuck
	}
	return unsettled - hazard, hazard
}

// checkRuns compares every run with ref: the aggregate fingerprints
// and seed-pure metrics must be equal, every AC2T graded, and no AC2T
// failed. It returns one message per broken check.
func checkRuns(w workload, ref run, runs []run) []string {
	var problems []string
	want := seedPure(w, ref.agg)
	for i, r := range runs {
		if r.fingerprint != ref.fingerprint {
			problems = append(problems, fmt.Sprintf("run %d (%d workers): aggregate fingerprint %.12s differs from %.12s (%d workers)",
				i, r.workers, r.fingerprint, ref.fingerprint, ref.workers))
		}
		for k, v := range seedPure(w, r.agg) {
			if v != want[k] {
				problems = append(problems, fmt.Sprintf("run %d: seed-pure %s = %v, want %v", i, k, v, want[k]))
			}
		}
		if r.agg.Graded != r.agg.Txs {
			problems = append(problems, fmt.Sprintf("run %d: graded %d of %d AC2Ts", i, r.agg.Graded, r.agg.Txs))
		}
		if failed, _ := failures(w, r.agg); failed != 0 {
			problems = append(problems, fmt.Sprintf("run %d: %d AC2Ts failed (%d stuck, %d atomicity violations)",
				i, failed, r.agg.Stuck, r.agg.Violations))
		}
	}
	slices.Sort(problems)
	return problems
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
