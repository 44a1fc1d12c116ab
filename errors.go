package locofs

import "locofs/internal/wire"

// Sentinel errors for the failure classes callers branch on. Every error
// returned by a Client (and by the servers' wire responses) matches exactly
// one of these under errors.Is, regardless of the wrapping added along the
// way:
//
//	if err := fs.Create(path, 0o644); errors.Is(err, locofs.ErrExist) {
//		// already created — e.g. by an earlier retried attempt
//	}
//
// ErrUnavailable and ErrDeadlineExceeded are the fault-tolerance layer's
// two outcomes of a server being unreachable: the former when the circuit
// breaker fails the call fast (or the server explicitly refused), the
// latter when an attempt's deadline expired. ErrDeadlineExceeded also
// matches context.DeadlineExceeded, so code written against the standard
// library's convention works unchanged.
var (
	// ErrNotFound: the file or directory does not exist (ENOENT).
	ErrNotFound error = wire.StatusNotFound.Err()
	// ErrExist: the file or directory already exists (EEXIST).
	ErrExist error = wire.StatusExist.Err()
	// ErrNotEmpty: the directory still has entries (ENOTEMPTY).
	ErrNotEmpty error = wire.StatusNotEmpty.Err()
	// ErrPerm: the caller lacks permission (EACCES/EPERM).
	ErrPerm error = wire.StatusPerm.Err()
	// ErrUnavailable: the server is unreachable or refusing work — raised
	// by an open circuit breaker or an explicit EUNAVAIL response.
	ErrUnavailable error = wire.StatusUnavailable.Err()
	// ErrDeadlineExceeded: the per-attempt deadline (DialConfig.OpTimeout)
	// expired before a response arrived.
	ErrDeadlineExceeded error = wire.StatusDeadline.Err()
	// ErrStale: the client's view of the cluster was out of date. It
	// matches both staleness classes the servers raise — ESTALE (an FMS
	// ownership guard refusing a misrouted request during a membership
	// change) and EWRONGPART (a DMS partition refusing a request for a
	// path it does not own under the current cluster map) — so callers
	// branch on one sentinel regardless of which routing layer went stale.
	// The client refreshes its cluster map and retries internally; ErrStale surfaces only when those bounded
	// retries are exhausted, which normally indicates churn still in
	// progress. The operation is safe to retry.
	ErrStale error = wire.StatusStale.Err()
	// ErrExpired: the mutation's retry horizon has passed. A DMS partition
	// prunes its dedup-replay records together with its replicated op log
	// (below the group-wide applied watermark); a retry older than that
	// watermark can no longer be told apart from a fresh request, so it is
	// refused without executing — the safe side of at-most-once. Seen only
	// on retries delayed past thousands of subsequent mutations on the same
	// partition; the caller should re-check the target's state rather than
	// retry blindly.
	ErrExpired error = wire.StatusExpired.Err()
)
