// Package nolint: a //thedb:nolint:syncerr comment with a reason
// covers its own line and the next; one naming another rule does not.
package nolint

import "thedb/internal/wal"

func suppressed(l *wal.Logger) {
	l.Sync() //thedb:nolint:syncerr trailing, with its reason

	//thedb:nolint:syncerr on the line above, with its reason
	l.Sync()
	l.Close() // want `error from Close discarded`

	l.Sync() /* want `error from Sync discarded` `suppression must read` */ //thedb:nolint:othercheck names another rule
}
