package fabric

// SetMaxPeerPayload sets the peer payload cap of clients built after the
// call and returns a function restoring the previous cap.
func SetMaxPeerPayload(n int64) (restore func()) {
	old := maxPeerPayload
	maxPeerPayload = n
	return func() { maxPeerPayload = old }
}
