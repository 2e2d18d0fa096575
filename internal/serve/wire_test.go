package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"sinrconn"
)

// TestTimeoutClamp pins the request-timeout resolution: negative and
// zero timeout_ms clamp to the server default (never an already-expired
// deadline), over-max clamps to the cap, and the cap applies even when
// no default is configured.
func TestTimeoutClamp(t *testing.T) {
	settleGoroutines(t)
	const (
		def = 2 * time.Second
		max = 10 * time.Second
	)
	cases := []struct {
		name string
		ms   int64
		def  time.Duration
		max  time.Duration
		want time.Duration
	}{
		{"negative clamps to default", -50, def, max, def},
		{"zero clamps to default", 0, def, max, def},
		{"negative with no default clamps to max", -1, 0, max, max},
		{"in range passes through", 3000, def, max, 3 * time.Second},
		{"over max clamps to max", 60_000, def, max, max},
		{"default over max clamps to max", 0, 20 * time.Second, max, max},
		{"no bounds at all means none", 0, 0, 0, 0},
		{"negative with no bounds means none", -7, 0, 0, 0},
		{"uncapped request honored", 60_000, def, 0, time.Minute},
		{"overflowing count saturates to max", 18446744073710, def, max, max},
		{"overflowing count uncapped saturates", 18446744073710, def, 0, time.Duration(maxMillis) * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := timeout(tc.ms, tc.def, tc.max); got != tc.want {
				t.Fatalf("timeout(%d, %v, %v) = %v, want %v", tc.ms, tc.def, tc.max, got, tc.want)
			}
		})
	}
}

// TestDecodeRejectsOverflowingMillis: millisecond fields whose product
// with time.Millisecond would wrap time.Duration fail to decode (a 400 at
// the daemon) instead of becoming a tiny or negative duration; the
// largest representable count still decodes.
func TestDecodeRejectsOverflowingMillis(t *testing.T) {
	cases := []struct {
		name, body string
		into       any
		ok         bool
	}{
		{"timeout_ms overflow", `{"pipeline":"init-uniform","timeout_ms":18446744073710}`, &RunRequest{}, false},
		{"timeout_ms just over", `{"pipeline":"init-uniform","timeout_ms":9223372036855}`, &RunRequest{}, false},
		{"timeout_ms max", `{"pipeline":"init-uniform","timeout_ms":9223372036854}`, &RunRequest{}, true},
		{"cache_ttl_ms overflow", `{"points":[[0,0]],"cache_ttl_ms":9223372036855}`, &OpenRequest{}, false},
		{"cache_ttl_ms max", `{"points":[[0,0]],"cache_ttl_ms":9223372036854}`, &OpenRequest{}, true},
		{"join timeout_ms overflow", `{"result_id":"r1","timeout_ms":18446744073710}`, &JoinRequest{}, false},
		{"churn timeout_ms overflow", `{"events":1,"timeout_ms":18446744073710}`, &ChurnRequest{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := json.NewDecoder(strings.NewReader(tc.body)).Decode(tc.into)
			if tc.ok && err != nil {
				t.Fatalf("decode rejected a representable count: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("decode accepted %s", tc.body)
			}
		})
	}
}

// FuzzWireDecode: arbitrary bytes decoded as an OpenRequest and as a
// RunRequest either fail to decode or survive an encode/decode round trip
// unchanged; a decoded timeout never wraps; options that lower cleanly
// either apply over a fixed 6-point deployment or fail with an error the
// daemon maps to 400. Nothing panics.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{"points":[[0,0],[2,0]],"options":{"seed":3,"max_rel_err":0.5,"far_mode":"auto"},"cache_size":4,"cache_ttl_ms":1000}`))
	f.Add([]byte(`{"pipeline":"tvc-mean","options":{"alpha":2.5,"rho":2},"timeout_ms":50}`))
	f.Add([]byte(`{"options":{"broadcast_prob":0.9,"max_rel_err":-1,"far_mode":"quadtree"}}`))
	pts := toPoints([][2]float64{{0, 0}, {3, 0}, {0, 3}, {3, 3}, {6, 1}, {1, 6}})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	check := func(t *testing.T, what string, err error) {
		t.Helper()
		if err != nil && !errors.Is(err, context.Canceled) && status(err) != http.StatusBadRequest {
			t.Fatalf("%s: %v maps to %d, want 400", what, err, status(err))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var open OpenRequest
		if json.Unmarshal(data, &open) == nil {
			wireRoundTrip(t, &open, &OpenRequest{})
			if ms := int64(open.CacheTTLMs); ms > 0 && int64(time.Duration(ms)*time.Millisecond/time.Millisecond) != ms {
				t.Fatalf("cache_ttl_ms %d decoded but wraps time.Duration", ms)
			}
			if opts, err := open.Options.runOptions(true); err == nil {
				ttl := time.Duration(open.CacheTTLMs) * time.Millisecond
				opts = append(opts, sinrconn.WithResultCache(open.CacheSize, ttl))
				nw, err := sinrconn.Open(pts, opts...)
				check(t, "open", err)
				if nw != nil {
					nw.Close()
				}
			}
		}
		var run RunRequest
		if json.Unmarshal(data, &run) == nil {
			wireRoundTrip(t, &run, &RunRequest{})
			if ms := int64(run.TimeoutMs); ms > 0 {
				if got := timeout(ms, 0, 0); int64(got/time.Millisecond) != ms {
					t.Fatalf("timeout_ms %d resolved to %v", ms, got)
				}
			}
			p, perr := pipelineByName(run.Pipeline)
			if opts, err := run.Options.runOptions(false); err == nil && perr == nil {
				nw, err := sinrconn.Open(pts)
				if err != nil {
					t.Fatal(err)
				}
				_, err = nw.Run(canceled, p, opts...)
				nw.Close()
				check(t, "run", err)
			}
		}
	})
}

// wireRoundTrip re-encodes a decoded request and decodes it again into
// fresh; both decodes must agree.
func wireRoundTrip[T any](t *testing.T, decoded, fresh *T) {
	t.Helper()
	b, err := json.Marshal(decoded)
	if err != nil {
		t.Fatalf("encode %+v: %v", *decoded, err)
	}
	if err := json.Unmarshal(b, fresh); err != nil {
		t.Fatalf("decode of own encoding %s: %v", b, err)
	}
	if !reflect.DeepEqual(decoded, fresh) {
		t.Fatalf("round trip changed the request:\n%+v\n%+v", *decoded, *fresh)
	}
}
