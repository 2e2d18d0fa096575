package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"sinrconn"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics, reported by every untraced run
// of every workload, in output order. Their directions and regression
// bounds are declared in BENCHMARK.json.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mib", "MiB"},
	{"op_ms", "ms"},
	{"schedule_slots", "slots"},
	{"construction_slots", "slots"},
	{"aggregation_latency_slots", "slots"},
}

// layerMetrics are the per-layer metrics, reported by every traced run of
// every workload in output order; a layer a workload does not exercise
// reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"sinrconn.open_s", "s"},
		{"sinrconn.warm_s", "s"},
		{"sinr.delta_s", "s"},
		{"sinr.gain_table_s", "s"},
		{"sinr.gain_table_mib", "MiB"},
		{"sinr.plan_s", "s"},
		{"sim.slots", "count"},
		{"sim.exact_slots", "count"},
		{"sim.far_slots", "count"},
		{"sim.dense_slots", "count"},
		{"sim.exact_slot_us", "us"},
		{"sim.far_slot_us", "us"},
		{"sim.senders_per_slot", "count"},
		{"sim.deliveries_per_sender", "fraction"},
		{"sim.slot_frac", "fraction"},
	}
	for _, p := range sinrconn.Pipelines() {
		defs = append(defs, metricDef{nonSlotName(p), "s"})
	}
	return append(defs, []metricDef{
		{"core.rounds", "count"},
		{"core.iterations", "count"},
		{"tree.verify_s", "s"},
		{"churn.incremental_repairs", "count"},
		{"churn.restamps", "count"},
		{"churn.rebuilds", "count"},
		{"churn.retries", "count"},
		{"churn.compactions", "count"},
		{"churn.peak_schedule", "slots"},
		{"serve.run_p50_ms", "ms"},
		{"serve.run_tail_ms", "ms"},
		{"serve.run_tail_pct", "%"},
		{"serve.run_samples", "count"},
		{"serve.write_p50_ms", "ms"},
		{"serve.write_tail_ms", "ms"},
		{"serve.write_tail_pct", "%"},
		{"serve.write_samples", "count"},
		{"serve.run_server_ms", "ms"},
		{"serve.open_server_ms", "ms"},
		{"serve.close_server_ms", "ms"},
		{"serve.run_transport_ms", "ms"},
		{"cache.hit_rate", "fraction"},
		{"cache.evictions", "count"},
		{"cache.coalesced", "count"},
		{"trace_overhead_frac", "fraction"},
	}...)
}()

// runConfig is one run of one workload.
type runConfig struct {
	seed   int64
	budget time.Duration // measured time
	trace  bool
}

// report collects what one run measured and checked.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	log       io.Writer // failures are described here
}

// set records metric name; a workload sets any metric it measures, and
// the run's mode picks the ones reported.
func (r *report) set(name string, v float64) { r.values[name] = v }

// attempt records n attempted operations, failed of which failed with err.
func (r *report) attempt(n, failed int, err error) {
	r.attempted += n
	r.failed += failed
	if err != nil {
		fmt.Fprintln(r.log, "bench: failed:", err)
	}
}

// setCache records a result cache's activity during the timed loop.
func (r *report) setCache(hits, misses, evictions, coalesced uint64) {
	r.set("cache.hit_rate", ratio(float64(hits), float64(hits+misses)))
	r.set("cache.evictions", float64(evictions))
	r.set("cache.coalesced", float64(coalesced))
}

// metric is one reported value.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// metricList marshals as a JSON object from name to value and unit, in
// list order.
type metricList []metric

func (l metricList) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, m := range l {
		if i > 0 {
			b.WriteByte(',')
		}
		name, err := json.Marshal(m.Name)
		if err != nil {
			return nil, err
		}
		val, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, m.Unit})
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", m.Name, err)
		}
		b.Write(name)
		b.WriteByte(':')
		b.Write(val)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

func (l *metricList) UnmarshalJSON(data []byte) error {
	var m map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*l = (*l)[:0]
	for name, v := range m {
		*l = append(*l, metric{name, v.Value, v.Unit})
	}
	sort.Slice(*l, func(i, j int) bool { return (*l)[i].Name < (*l)[j].Name })
	return nil
}

// result is the line a run prints last.
type result struct {
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Metrics   metricList `json:"metrics"`
}

// finish reports the metrics of the run's mode: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one. A metric
// no declaration names is a bug in the workload, as is a missing
// end-to-end metric; a missing per-layer metric reads 0.
func (r *report) finish(trace bool) (result, error) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
		known[d.name] = true
	}
	for name := range r.values {
		if !known[name] {
			return result{}, fmt.Errorf("undeclared metric %q", name)
		}
	}
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
	}
	res := result{Correct: r.attempted > 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace {
			return result{}, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		res.Metrics = append(res.Metrics, metric{d.name, v, d.unit})
	}
	return res, nil
}
