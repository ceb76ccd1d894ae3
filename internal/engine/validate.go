package engine

import (
	"errors"
	"fmt"

	"viptree/internal/model"
)

// ErrInvalidQuery is the Result.Err of a query no index can answer: a
// partition outside the venue, a kNN count below one, or a range radius
// that is NaN or negative. The wrapped message names the offending field;
// match the error with errors.Is. Invalid queries are rejected before they
// reach the index, so bad input never shows up as a panic.
var ErrInvalidQuery = errors.New("engine: invalid query")

// venueIndex is an index that reports the venue it was built over, which
// lets the engine range-check partitions. Every index in this module
// implements it.
type venueIndex interface {
	Venue() *model.Venue
}

// validate checks q against the engine's venue. Distance and path check
// both endpoints, kNN and range their query point and parameter, insert and
// move the object location; delete carries no location.
func (e *Engine) validate(q *Query) error {
	switch q.Kind {
	case KindDistance, KindPath:
		if err := e.checkPartition("source", q.S.Partition); err != nil {
			return err
		}
		return e.checkPartition("target", q.T.Partition)
	case KindKNN:
		if q.K < 1 {
			return fmt.Errorf("%w: k = %d, want at least 1", ErrInvalidQuery, q.K)
		}
		return e.checkPartition("source", q.S.Partition)
	case KindRange:
		if !(q.Radius >= 0) {
			return fmt.Errorf("%w: radius %v, want a number at least 0", ErrInvalidQuery, q.Radius)
		}
		return e.checkPartition("source", q.S.Partition)
	case KindInsert, KindMove:
		return e.checkPartition("object", q.S.Partition)
	}
	return nil
}

func (e *Engine) checkPartition(role string, p model.PartitionID) error {
	if e.partitions < 0 || (p >= 0 && int(p) < e.partitions) {
		return nil
	}
	return fmt.Errorf("%w: %s partition %d outside [0, %d)", ErrInvalidQuery, role, p, e.partitions)
}
