// Package aborterr exercises the aborterr analyzer: structured errors
// must be matched through errors.Is/errors.As (which unwrap) and wrapped
// with %w, never compared or type-switched directly.
package aborterr

import (
	"errors"
	"fmt"
)

// ErrStopped is a module sentinel by the Err* naming convention.
var ErrStopped = errors.New("stopped")

// FailError is a module structured error by the *Error convention.
type FailError struct {
	Rank int
}

func (e *FailError) Error() string { return fmt.Sprintf("rank %d failed", e.Rank) }

// Is implements the unwrap protocol; identity comparison here is the
// protocol itself and is exempt.
func (e *FailError) Is(target error) bool { return target == ErrStopped }

// The sanctioned forms.
func matchWell(err error) bool {
	var fe *FailError
	if errors.As(err, &fe) {
		return true
	}
	return errors.Is(err, ErrStopped)
}

func wrapWell(err error) error {
	return fmt.Errorf("step 3: %w", err)
}

func compareEq(err error) bool {
	return err == ErrStopped // want `comparing ErrStopped with == misses wrapped errors`
}

func compareNeq(err error) bool {
	return err != ErrStopped // want `comparing ErrStopped with != misses wrapped errors`
}

func switchValue(err error) bool {
	switch err {
	case ErrStopped: // want `switching on ErrStopped by value misses wrapped errors`
		return true
	}
	return false
}

func switchType(err error) int {
	switch e := err.(type) {
	case *FailError: // want `type-switching on FailError misses wrapped errors`
		return e.Rank
	}
	return -1
}

func assertType(err error) bool {
	_, ok := err.(*FailError) // want `type-asserting to FailError misses wrapped errors`
	return ok
}

func wrapBadly(err error) error {
	return fmt.Errorf("step 3: %v", err) // want `fmt.Errorf formats an error without %w`
}

// Formatting only non-error values needs no %w.
func formatValues(rank int) error {
	return fmt.Errorf("rank %d out of range", rank)
}

// Comparing to nil is not a sentinel comparison.
func nilCheck(err error) bool { return err == nil }

// The audit's plant, in the shape of jobd's checkpoint step: a step error
// formatted with %v. The job still fails with the right message, so no
// test notices, but errors.Is(err, ErrStopped) upstream stops matching.
func checkpointStep(step int, save func() error) error {
	if err := save(); err != nil {
		return fmt.Errorf("step %d checkpoint: %v", step, err) // want `fmt.Errorf formats an error without %w`
	}
	return nil
}
