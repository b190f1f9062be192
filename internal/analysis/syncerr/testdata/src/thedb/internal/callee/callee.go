// Package callee: a method call is flagged; a call through a func value has no callee.
package callee

import "thedb/internal/wal"

func calls(l *wal.Logger) {
	l.Flush() // want `error from Flush discarded`
	sync := l.Sync
	sync()
}
