package sinrconn

// The typed error hierarchy for robustness-aware callers. All protocol-level
// failures are rooted at ErrNotConverged so one errors.Is test routes
// "retry with a fresh seed" decisions; the churn driver adds two refinements
// of its own (ErrDamped, ErrRetryExhausted) that stay in the same tree.

import (
	"fmt"

	"sinrconn/internal/core"
)

// ErrNotConverged reports that a randomized construction protocol (Init,
// Join, the re-attachment phase of Repair/RepairLinks) exhausted its round
// budget without connecting every participant. It is the retryable error
// class: the protocols are Las Vegas, so re-running with a fresh seed on the
// SAME instance succeeds with high probability — whereas validator or
// geometry errors are deterministic and retrying cannot help. Test with
// errors.Is; the value is shared with the internal construction layer, so
// errors returned by any Network method match it directly.
var ErrNotConverged error = core.ErrNotConverged

// ErrDamped reports that an operation was refused because its target region
// is flap-damped: the region accumulated too many failures inside the
// damping window and is quarantined until the cooldown passes (see
// Network.Churn). Joins into a damped region are not attempted — the
// region's recent history says the work would likely be wasted — which is
// what bounds repair effort on a permanently failing region. ErrDamped is
// not retryable-by-reseed and deliberately does NOT wrap ErrNotConverged.
var ErrDamped = fmt.Errorf("sinrconn: region is flap-damped")

// ErrRetryExhausted reports that the churn driver's bounded retry ladder —
// reseeded protocol re-runs with round-budget backoff, then graceful
// degradation to a full rebuild — still ended in non-convergence. It wraps
// ErrNotConverged, so errors.Is(err, ErrNotConverged) also matches; callers
// that see it have already had every automatic recovery spent on their
// behalf.
var ErrRetryExhausted = fmt.Errorf("sinrconn: retries exhausted: %w", ErrNotConverged)
