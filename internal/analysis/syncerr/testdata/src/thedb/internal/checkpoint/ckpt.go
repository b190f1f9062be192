// Fixture mirror of the checkpoint package: strict mode, so every
// discarded Sync/Flush/Close error is flagged whatever the receiver,
// and a discarded os.Rename error is flagged too — rename is the
// crash-atomic publish point of a checkpoint image.
package checkpoint

import "os"

func publish(f *os.File, tmp, final string) {
	f.Sync()                  // want `error from Sync discarded`
	defer f.Close()           // want `error from Close discarded`
	os.Rename(tmp, final)     // want `error from Rename discarded`
	_ = os.Rename(tmp, final) // want `error from Rename discarded`
}

// publishChecked handles every error: true negatives.
func publishChecked(f *os.File, tmp, final string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	// Receiverless functions outside strictFuncs stay unflagged even
	// when their error is dropped.
	_ = os.Remove(tmp)
	return nil
}
