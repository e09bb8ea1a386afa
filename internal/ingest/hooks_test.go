package ingest

import "net"

// Test hooks.

// Kill models the node process dying mid-epoch. The kill boundary: player
// connections drop instantly (un-acked frames in flight are lost — their
// senders re-deliver to the ring's next owner), sessions pending in the
// assembler die with the process, and the relay stops without draining.
// Sessions already emitted into the in-memory spool are drained to the
// on-disk segment first: they stand in for writes riding the page cache,
// which survive a process kill (though not a machine crash — the fsync at
// segment seal covers that boundary). The next incarnation recovers the
// segments and re-sends.
func (n *Node) Kill() {
	n.col.Abort()
	n.sp.Close()
	n.relay.kill()
}

// Serve accepts relay connections from an existing listener.
func (a *Aggregator) Serve(ln net.Listener) error { return a.srv.Serve(ln) }
