package core

import (
	"errors"

	"repro/internal/kernel"
)

// The invocation-failure taxonomy. Every error a subcontract's failure
// path can produce falls into one of four classes, and the class — not
// the message — decides what a retrying subcontract (replicon,
// reconnectable) may do with it:
//
//   - Communications failures (kernel.ErrCommFailure, kernel.ErrRevoked,
//     kernel.ErrBadHandle): the call may never have reached the server,
//     or the server is gone. RETRY-SAFE for idempotent protocols; this is
//     exactly the class replicon fails over on and reconnectable
//     re-resolves on.
//   - Admission refusals (kernel.ErrOverload): the server shed the call
//     at its dispatch engine's in-flight bound before executing it.
//     RETRY-SAFE unconditionally — the call never ran — but the right
//     response is backoff or failover, not an immediate hammer.
//   - Context endings (ErrDeadlineExceeded, ErrCancelled): the caller's
//     budget is spent or the caller abandoned the call. NEVER retry-safe;
//     a subcontract must surface these immediately, however many replicas
//     or resolution attempts remain.
//   - Remote exceptions (stubs.RemoteError): the server application
//     raised an error. NEVER retry-safe — the call executed.
//   - Framework errors (ErrConsumed, ErrNilObject, marshalling faults):
//     local programming errors. Never retry-safe.
//
// Subcontract failure paths wrap one of these sentinels with %w rather
// than fabricating bare strings, so errors.Is classification works at
// every layer.
var (
	// ErrDeadlineExceeded reports that a call's deadline passed. It is the
	// same value as kernel.ErrDeadlineExceeded, so the classification
	// holds whether the deadline expired at the stubs, in the kernel, in a
	// subcontract's retry loop, or on a remote machine.
	ErrDeadlineExceeded = kernel.ErrDeadlineExceeded
	// ErrCancelled reports that the caller abandoned the call. Same value
	// as kernel.ErrCancelled.
	ErrCancelled = kernel.ErrCancelled
)

// Retryable reports whether err is in the retry-safe class: a
// communications failure that a replica-switching or re-resolving
// subcontract may transparently retry. Context endings, remote exceptions
// and framework errors are not retryable.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrCancelled) {
		return false
	}
	return errors.Is(err, kernel.ErrCommFailure) ||
		errors.Is(err, kernel.ErrRevoked) ||
		errors.Is(err, kernel.ErrBadHandle) ||
		errors.Is(err, kernel.ErrOverload)
}
