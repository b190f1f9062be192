// Package audit: only //thedb:nolint:syncerr <reason> counts; other forms are findings.
package audit

import "thedb/internal/wal"

func malformed(l *wal.Logger) {
	l.Sync() /* want `error from Sync discarded` `suppression must read` */ //thedb:nolint:syncerr
	l.Sync() /* want `error from Sync discarded` `suppression must read` */ //thedb:nolint:syncerr,othercheck a list
	l.Sync() /* want `error from Sync discarded` `suppression must read` */ //thedb:nolint the bare form
	l.Sync() //thedb:nolint:syncerr the one well-formed suppression
}
