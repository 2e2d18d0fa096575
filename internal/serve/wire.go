package serve

// The wire format. Every response body is produced by these encoders from
// the exact values the in-process session API returns — the differential
// gate marshals both sides through the same types and compares bytes.

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"sinrconn"
)

// maxMillis is the largest millisecond count a time.Duration can hold.
const maxMillis = math.MaxInt64 / int64(time.Millisecond)

// Millis is a millisecond count on the wire (timeout_ms, cache_ttl_ms).
// Decoding rejects counts a time.Duration cannot hold, so a huge value is
// a 400 instead of a product that wraps to a tiny or negative duration.
type Millis int64

// UnmarshalJSON decodes an integer and rejects it above maxMillis.
func (m *Millis) UnmarshalJSON(b []byte) error {
	var v int64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	if v > maxMillis {
		return fmt.Errorf("%d ms exceeds the longest duration (%d ms)", v, maxMillis)
	}
	*m = Millis(v)
	return nil
}

// OptionsJSON is the wire form of the functional options. Zero-valued
// fields are "not set" (they inherit the session or package default);
// pointer fields distinguish an explicit zero where one is meaningful.
type OptionsJSON struct {
	Alpha         float64  `json:"alpha,omitempty"`
	Beta          float64  `json:"beta,omitempty"`
	Noise         float64  `json:"noise,omitempty"`
	Seed          int64    `json:"seed,omitempty"`
	Workers       int      `json:"workers,omitempty"`
	DropProb      float64  `json:"drop_prob,omitempty"`
	AutoNormalize bool     `json:"auto_normalize,omitempty"`
	BroadcastProb float64  `json:"broadcast_prob,omitempty"`
	Rho           int      `json:"rho,omitempty"`
	MaxRelErr     *float64 `json:"max_rel_err,omitempty"` // pointer: explicit 0 forces exact
	// FarMode is kept on the wire so a far_mode:"auto" request (and its
	// journal record) keeps its deployment signature: "" and "auto" are
	// no-ops, every other value is rejected.
	FarMode string `json:"far_mode,omitempty"`
}

// runOptions lowers the wire options to session RunOptions. openScope adds
// the Open-only options (auto_normalize, workers).
func (o OptionsJSON) runOptions(openScope bool) ([]sinrconn.RunOption, error) {
	var opts []sinrconn.RunOption
	if o.Alpha != 0 || o.Beta != 0 || o.Noise != 0 {
		opts = append(opts, sinrconn.WithPhys(sinrconn.PhysParams{Alpha: o.Alpha, Beta: o.Beta, Noise: o.Noise}))
	}
	if o.Seed != 0 {
		opts = append(opts, sinrconn.WithSeed(o.Seed))
	}
	if o.DropProb != 0 {
		opts = append(opts, sinrconn.WithDropProb(o.DropProb))
	}
	if o.BroadcastProb != 0 {
		opts = append(opts, sinrconn.WithBroadcastProb(o.BroadcastProb))
	}
	if o.Rho != 0 {
		opts = append(opts, sinrconn.WithRho(o.Rho))
	}
	if o.MaxRelErr != nil {
		opts = append(opts, sinrconn.WithMaxRelError(*o.MaxRelErr))
	}
	if o.FarMode != "" && o.FarMode != "auto" {
		return nil, fmt.Errorf("far_mode %q is not supported: only \"auto\" remains (the forced \"quadtree\" and \"flat\" modes were removed)", o.FarMode)
	}
	if openScope {
		// The pool spawns one goroutine per worker: a client must not size
		// it past the host.
		if o.Workers < 0 || o.Workers > runtime.NumCPU() {
			return nil, fmt.Errorf("workers %d outside [0, %d] (the host's CPU count)", o.Workers, runtime.NumCPU())
		}
		if o.Workers != 0 {
			opts = append(opts, sinrconn.WithWorkers(o.Workers))
		}
		if o.AutoNormalize {
			opts = append(opts, sinrconn.WithAutoNormalize(true))
		}
	} else if o.Workers != 0 || o.AutoNormalize {
		return nil, fmt.Errorf("workers and auto_normalize are session (open) options")
	}
	return opts, nil
}

// pipelineByName maps wire pipeline names (the Pipeline.String() forms) to
// values.
func pipelineByName(name string) (sinrconn.Pipeline, error) {
	for _, p := range sinrconn.Pipelines() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown pipeline %q", name)
}

// OpenRequest opens a session over one deployment.
type OpenRequest struct {
	// Points is the deployment geometry, [x, y] pairs.
	Points [][2]float64 `json:"points"`
	// Options are the Open-scoped session options.
	Options OptionsJSON `json:"options,omitzero"`
	// CacheSize / CacheTTLMs bound the deployment's result cache (0 = the
	// server's configured defaults).
	CacheSize  int    `json:"cache_size,omitempty"`
	CacheTTLMs Millis `json:"cache_ttl_ms,omitempty"`
}

// OpenResponse names the opened session.
type OpenResponse struct {
	SessionID string `json:"session_id"`
	// Nodes is the deployment size after validation.
	Nodes int `json:"nodes"`
	// SharedDeployment reports that the server content-addressed the
	// deployment onto an existing Network (same points and options), so
	// this session shares its instance, pool, and result cache.
	SharedDeployment bool `json:"shared_deployment,omitempty"`
}

// RunRequest executes one pipeline on a session.
type RunRequest struct {
	// Pipeline is the pipeline name: "init-uniform", "reschedule-mean",
	// "tvc-mean", or "tvc-arbitrary".
	Pipeline string `json:"pipeline"`
	// Options are per-run overrides.
	Options OptionsJSON `json:"options,omitzero"`
	// IncludeTree adds the full scheduled tree to the response (the
	// metrics-only default keeps hot-path responses small).
	IncludeTree bool `json:"include_tree,omitempty"`
	// Stream switches the response to chunked newline-delimited JSON slot
	// events followed by a terminal result line.
	Stream bool `json:"stream,omitempty"`
	// TimeoutMs bounds the run (0 = server default). The deadline maps to
	// context cancellation between simulator slots.
	TimeoutMs Millis `json:"timeout_ms,omitempty"`
}

// RunResponse carries one constructed result.
type RunResponse struct {
	// ResultID names the result inside its session for follow-up
	// operations (join, repair, churn).
	ResultID string `json:"result_id"`
	// Cached reports the result was served from the deployment's result
	// cache (or by waiting on a concurrent identical construction) rather
	// than computed for this request.
	Cached bool `json:"cached"`
	// Result is the encoded result — the differential payload.
	Result ResultJSON `json:"result"`
}

// MatrixRequest executes a batch sweep on a session.
type MatrixRequest struct {
	Specs []struct {
		Pipeline string      `json:"pipeline"`
		Options  OptionsJSON `json:"options,omitzero"`
	} `json:"specs"`
	IncludeTree bool   `json:"include_tree,omitempty"`
	TimeoutMs   Millis `json:"timeout_ms,omitempty"`
}

// MatrixResponse carries the sweep outcome; Results[i] corresponds to
// Specs[i] (null where that spec failed, with Errors[i] explaining).
type MatrixResponse struct {
	Results   []*ResultJSON `json:"results"`
	ResultIDs []string      `json:"result_ids"`
	Errors    []string      `json:"errors,omitempty"`
}

// JoinRequest attaches new nodes to an existing result's tree.
type JoinRequest struct {
	ResultID    string       `json:"result_id"`
	Points      [][2]float64 `json:"points"`
	Options     OptionsJSON  `json:"options,omitzero"`
	IncludeTree bool         `json:"include_tree,omitempty"`
	TimeoutMs   Millis       `json:"timeout_ms,omitempty"`
}

// RepairRequest removes failed nodes (Failed) or permanently failed links
// (Links) from an existing result's tree and reconnects the survivors.
// Exactly one of Failed/Links must be non-empty.
type RepairRequest struct {
	ResultID    string      `json:"result_id"`
	Failed      []int       `json:"failed,omitempty"`
	Links       []LinkJSON  `json:"links,omitempty"`
	Options     OptionsJSON `json:"options,omitzero"`
	IncludeTree bool        `json:"include_tree,omitempty"`
	TimeoutMs   Millis      `json:"timeout_ms,omitempty"`
}

// ChurnRequest streams a churn trace through the session's deployment.
type ChurnRequest struct {
	Seed        int64   `json:"seed,omitempty"`
	Events      int     `json:"events"`
	JoinRate    float64 `json:"join_rate,omitempty"`
	FailRate    float64 `json:"fail_rate,omitempty"`
	BurstRate   float64 `json:"burst_rate,omitempty"`
	ShowerRate  float64 `json:"shower_rate,omitempty"`
	MoveRate    float64 `json:"move_rate,omitempty"`
	Mobility    string  `json:"mobility,omitempty"` // "", "waypoint", "citygrid"
	IncludeTree bool    `json:"include_tree,omitempty"`
	TimeoutMs   Millis  `json:"timeout_ms,omitempty"`
}

// ChurnResponse reports a completed churn run.
type ChurnResponse struct {
	// ResultID names the final live result (bound to the churned
	// deployment) for follow-up operations.
	ResultID string `json:"result_id"`
	// Result is the final tree + metrics.
	Result ResultJSON `json:"result"`
	// Stats aggregates the run (event/repair/retry counts).
	Stats sinrconn.ChurnStats `json:"stats"`
	// Soft lists absorbed non-fatal errors, as strings.
	Soft []string `json:"soft,omitempty"`
}

// LinkJSON is a directed link on the wire.
type LinkJSON struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// ScheduledLinkJSON is a scheduled, powered link on the wire.
type ScheduledLinkJSON struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Slot  int     `json:"slot"`
	Power float64 `json:"power"`
}

// TreeJSON is the public bi-tree on the wire.
type TreeJSON struct {
	Root     int                 `json:"root"`
	NumNodes int                 `json:"num_nodes"`
	Up       []ScheduledLinkJSON `json:"up"`
}

// MetricsJSON mirrors sinrconn.Metrics field for field.
type MetricsJSON struct {
	SlotsUsed          int     `json:"slots_used"`
	ScheduleLength     int     `json:"schedule_length"`
	Rounds             int     `json:"rounds,omitempty"`
	Iterations         int     `json:"iterations,omitempty"`
	Upsilon            float64 `json:"upsilon"`
	Delta              float64 `json:"delta"`
	AggregationLatency int     `json:"aggregation_latency,omitempty"`
	BroadcastLatency   int     `json:"broadcast_latency,omitempty"`
	Energy             float64 `json:"energy"`
}

// ResultJSON is the wire form of a *sinrconn.Result.
type ResultJSON struct {
	Tree    *TreeJSON   `json:"tree,omitempty"`
	Metrics MetricsJSON `json:"metrics"`
}

// SlotEventJSON is one streamed slot event line.
type SlotEventJSON struct {
	Type       string `json:"type"` // "slot"
	Slot       int    `json:"slot"`
	Senders    int    `json:"senders"`
	Deliveries int    `json:"deliveries"` // decodes a protocol reads (sinrconn.SlotEvent)
	Far        bool   `json:"far,omitempty"`
}

// ErrorJSON is the uniform error body (and terminal stream line on
// failure).
type ErrorJSON struct {
	Type  string `json:"type,omitempty"` // "error" on stream lines
	Error string `json:"error"`
}

// EncodeResult lowers a session result to the wire. It is exported inside
// the module so the differential gate encodes in-process results through
// the EXACT code path the daemon uses.
func EncodeResult(r *sinrconn.Result, includeTree bool) ResultJSON {
	out := ResultJSON{
		Metrics: MetricsJSON{
			SlotsUsed:          r.Metrics.SlotsUsed,
			ScheduleLength:     r.Metrics.ScheduleLength,
			Rounds:             r.Metrics.Rounds,
			Iterations:         r.Metrics.Iterations,
			Upsilon:            r.Metrics.Upsilon,
			Delta:              r.Metrics.Delta,
			AggregationLatency: r.Metrics.AggregationLatency,
			BroadcastLatency:   r.Metrics.BroadcastLatency,
			Energy:             r.Metrics.Energy,
		},
	}
	if includeTree {
		t := &TreeJSON{
			Root:     r.Tree.Root,
			NumNodes: r.Tree.NumNodes,
			Up:       make([]ScheduledLinkJSON, len(r.Tree.Up)),
		}
		for i, l := range r.Tree.Up {
			t.Up[i] = ScheduledLinkJSON{From: l.From, To: l.To, Slot: l.Slot, Power: l.Power}
		}
		out.Tree = t
	}
	return out
}

// toPoints lowers wire point pairs.
func toPoints(pts [][2]float64) []sinrconn.Point {
	out := make([]sinrconn.Point, len(pts))
	for i, p := range pts {
		out[i] = sinrconn.Point{X: p[0], Y: p[1]}
	}
	return out
}

// traceSpec lowers a churn request to a TraceSpec.
func (c ChurnRequest) traceSpec() (sinrconn.TraceSpec, error) {
	spec := sinrconn.TraceSpec{
		Seed:       c.Seed,
		Events:     c.Events,
		JoinRate:   c.JoinRate,
		FailRate:   c.FailRate,
		BurstRate:  c.BurstRate,
		ShowerRate: c.ShowerRate,
		MoveRate:   c.MoveRate,
	}
	switch c.Mobility {
	case "":
		spec.Mobility = sinrconn.MobilityNone
	case "waypoint":
		spec.Mobility = sinrconn.MobilityWaypoint
	case "citygrid":
		spec.Mobility = sinrconn.MobilityCityGrid
	default:
		return spec, fmt.Errorf("unknown mobility %q (want waypoint or citygrid)", c.Mobility)
	}
	return spec, nil
}

// timeout resolves a request's timeout_ms against the server bounds.
// Non-positive values — zero (unset) and negative (malformed client) —
// clamp to the server default rather than producing an
// already-expired context; values over the max clamp to the max. Counts
// past maxMillis (the TimeoutHeader path; bodies reject them at decode)
// saturate instead of wrapping.
func timeout(ms int64, def, max time.Duration) time.Duration {
	d := def
	if ms > 0 {
		d = time.Duration(min(ms, maxMillis)) * time.Millisecond
	}
	if max > 0 && (d <= 0 || d > max) {
		d = max
	}
	return d
}
