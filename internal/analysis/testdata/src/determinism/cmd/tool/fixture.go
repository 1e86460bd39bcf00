package tool

import "time"

// cmd/ is outside the determinism scope (packages under internal/):
// nothing here is flagged.
func stamp() int64 {
	return time.Now().UnixNano()
}
