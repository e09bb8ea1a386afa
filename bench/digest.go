package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/online"
)

// digester folds a run's results into one SHA-256. Every field is written
// explicitly, so a field added to a result struct later leaves the digest
// of unchanged behaviour unchanged.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) i64(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	_, _ = d.h.Write(d.buf[:]) // hash.Hash.Write never returns an error
}

func (d *digester) key(k attr.Key) {
	d.i64(int64(k.Mask))
	for _, v := range k.Vals {
		d.i64(int64(v))
	}
}

// epochResult folds one analysed epoch: per metric the sessions, problems,
// problem-cluster count and covered problems, then each critical cluster.
func (d *digester) epochResult(res *core.EpochResult) {
	d.i64(int64(res.Epoch))
	for i := range res.Metrics {
		ms := &res.Metrics[i]
		d.i64(int64(ms.Metric))
		d.i64(int64(ms.GlobalSessions))
		d.i64(int64(ms.GlobalProblems))
		d.i64(int64(ms.NumProblemClusters))
		d.i64(int64(ms.CoveredProblems))
		d.i64(int64(len(ms.Critical)))
		for j := range ms.Critical {
			c := &ms.Critical[j]
			d.key(c.Key)
			d.i64(int64(c.Sessions))
			d.i64(int64(c.Problems))
		}
	}
}

// alert folds one epoch-level alert.
func (d *digester) alert(a online.Alert) {
	d.i64(int64(a.Epoch))
	d.i64(int64(a.Metric))
	d.key(a.Key)
	d.i64(int64(a.Kind))
	d.i64(int64(a.StreakHours))
	d.i64(int64(a.Sessions))
}

// tickAlert folds one tick-level alert.
func (d *digester) tickAlert(a online.TickAlert) {
	d.i64(int64(a.Tick))
	d.i64(int64(a.Metric))
	d.key(a.Key)
	d.i64(int64(a.Kind))
	d.i64(int64(a.StreakTicks))
	d.i64(int64(a.Sessions))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
