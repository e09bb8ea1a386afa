// Package trace stores session datasets on disk. A trace file is a small
// self-describing container: a header carrying the format version, the
// attribute-space catalog (so a trace is interpretable on its own), and a
// stream of fixed-width binary session records, optionally gzip-compressed.
// Readers stream; nothing requires the whole dataset in memory.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/attr"
	"repro/internal/session"
)

// Magic and Version identify the container format.
const (
	Magic   = "VQTRACE1"
	Version = 1
)

// ErrClosed is returned by operations on a closed writer or reader.
var ErrClosed = errors.New("trace: closed")

// Header describes a trace.
type Header struct {
	Version int `json:"version"`
	// Epochs is the number of one-hour epochs the trace spans; 0 means the
	// span is unknown, as in a trace written by live collection before any
	// session arrived.
	Epochs int `json:"epochs"`
	// Seed reproduces a synthetic trace exactly.
	Seed uint64 `json:"seed"`
	// Attrs carries the value-name catalog per dimension, in attr.Dim
	// order.
	Attrs [attr.NumDims][]string `json:"attrs"`
	// Comment is free-form provenance (generator config and so on).
	Comment string `json:"comment,omitempty"`
}

// Space reconstructs the attribute space from the header catalog.
func (h *Header) Space() (*attr.Space, error) {
	m := make(map[attr.Dim][]string, attr.NumDims)
	for d := attr.Dim(0); d < attr.NumDims; d++ {
		m[d] = h.Attrs[d]
	}
	return attr.NewSpace(m)
}

// HeaderFor builds a header embedding the given space catalog.
func HeaderFor(space *attr.Space, epochs int, seed uint64) Header {
	var h Header
	h.Version = Version
	h.Epochs = epochs
	h.Seed = seed
	for d := attr.Dim(0); d < attr.NumDims; d++ {
		names := make([]string, space.Cardinality(d))
		for i := range names {
			names[i] = space.Name(d, int32(i))
		}
		h.Attrs[d] = names
	}
	return h
}

// Writer streams sessions into a trace container.
type Writer struct {
	raw    io.Closer // underlying file, nil for in-memory sinks
	gz     *gzip.Writer
	bw     *bufio.Writer
	buf    []byte
	count  uint64
	closed bool

	// SyncEvery syncs the container to stable storage every this many
	// records (0 disables record-count syncing). A crash then loses at
	// most SyncEvery records plus one possibly-torn tail record, which
	// Reader recovers past.
	SyncEvery uint64
	lastSync  uint64

	// finalPath, when set, makes Close rename the underlying file there
	// (CreateAtomic): readers only ever observe complete containers.
	finalPath string
	tempPath  string
}

// NewWriter writes a trace to w. When compress is set the record stream is
// gzip-compressed (the header stays plain so files remain identifiable).
func NewWriter(w io.Writer, h Header, compress bool) (*Writer, error) {
	h.Version = Version
	meta, err := json.Marshal(&h)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding header: %w", err)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	flags := byte(0)
	if compress {
		flags = 1
	}
	if err := bw.WriteByte(flags); err != nil {
		return nil, err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(meta)))
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return nil, err
	}
	if _, err := bw.Write(meta); err != nil {
		return nil, err
	}
	tw := &Writer{bw: bw}
	if compress {
		tw.gz = gzip.NewWriter(bw)
	}
	return tw, nil
}

// Create opens path for writing and returns a Writer over it. Paths ending
// in ".gz" are compressed.
func Create(path string, h Header) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, h, hasGzSuffix(path))
	if err != nil {
		_ = f.Close() // the header error is the one worth surfacing
		return nil, err
	}
	w.raw = f
	return w, nil
}

// CreateAtomic is Create with atomic rotation semantics: records stream
// into path+".partial" and Close renames it to path, so a reader that
// opens path never sees a half-written container. A crash leaves only the
// .partial file (recoverable via Open and torn-tail handling); the
// previous complete trace at path, if any, is untouched until the rename.
func CreateAtomic(path string, h Header) (*Writer, error) {
	tmp := path + ".partial"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	// Compression follows the final path's extension, not the temp name.
	w, err := NewWriter(f, h, hasGzSuffix(path))
	if err != nil {
		_ = f.Close() // the header error is the one worth surfacing
		return nil, err
	}
	w.raw = f
	w.tempPath = tmp
	w.finalPath = path
	return w, nil
}

func hasGzSuffix(path string) bool {
	return len(path) > 3 && path[len(path)-3:] == ".gz"
}

func (w *Writer) sink() io.Writer {
	if w.gz != nil {
		return w.gz
	}
	return w.bw
}

// Write appends one session record, syncing when SyncEvery is due.
func (w *Writer) Write(s *session.Session) error {
	if w.closed {
		return ErrClosed
	}
	w.buf = session.AppendBinary(w.buf[:0], s)
	if _, err := w.sink().Write(w.buf); err != nil {
		return err
	}
	w.count++
	if w.SyncEvery > 0 && w.count-w.lastSync >= w.SyncEvery {
		return w.Sync()
	}
	return nil
}

// WriteAll appends a batch of sessions.
func (w *Writer) WriteAll(sessions []session.Session) error {
	for i := range sessions {
		if err := w.Write(&sessions[i]); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush pushes everything written so far down to the underlying sink —
// gzip-flush (a decodable sync point) then bufio flush — without an fsync.
// The relay spool uses it to keep every record visible in its segment file
// after each write while leaving fsync policy (and cost) to the segment
// owner; for durability against machine crashes use Sync.
func (w *Writer) Flush() error {
	if w.closed {
		return ErrClosed
	}
	if w.gz != nil {
		if err := w.gz.Flush(); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// Sync is Flush plus fsync when the sink is a file: everything written so
// far reaches stable storage. In-memory sinks flush but have nothing to
// fsync.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if f, ok := w.raw.(*os.File); ok {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	w.lastSync = w.count
	return nil
}

// Close flushes, syncs, and closes the trace, then — for CreateAtomic
// writers — renames the temp file into place so the final path only ever
// holds a complete container. The pre-close Sync makes a clean shutdown
// actually durable; without it the data could still be riding the page
// cache when the process exits.
func (w *Writer) Close() error {
	if w.closed {
		return ErrClosed
	}
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			w.closed = true
			return err
		}
		w.gz = nil // already closed; Sync below must not flush it again
	}
	if err := w.Sync(); err != nil {
		w.closed = true
		return err
	}
	w.closed = true
	if w.raw != nil {
		if err := w.raw.Close(); err != nil {
			return err
		}
	}
	if w.finalPath != "" {
		return os.Rename(w.tempPath, w.finalPath)
	}
	return nil
}

// Reader streams sessions out of a trace container.
type Reader struct {
	header Header
	raw    io.Closer
	gz     *gzip.Reader
	br     *bufio.Reader
	buf    []byte
	closed bool

	// Logf receives the torn-tail warning (nil silences it).
	Logf func(format string, args ...any)
	torn bool
}

// NewReader opens a trace from r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if flags&^1 != 0 {
		return nil, fmt.Errorf("trace: unknown flags %#x", flags)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, err
	}
	metaLen := binary.LittleEndian.Uint32(lenBuf[:])
	if metaLen > 1<<24 {
		return nil, fmt.Errorf("trace: implausible header length %d", metaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(br, meta); err != nil {
		return nil, err
	}
	tr := &Reader{br: br, buf: make([]byte, session.BinarySize())}
	if err := json.Unmarshal(meta, &tr.header); err != nil {
		return nil, fmt.Errorf("trace: decoding header: %w", err)
	}
	if tr.header.Version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", tr.header.Version)
	}
	if flags&1 != 0 {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip stream: %w", err)
		}
		tr.gz = gz
	}
	return tr, nil
}

// Open opens a trace file at path.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		_ = f.Close() // the header error is the one worth surfacing
		return nil, err
	}
	r.raw = f
	return r, nil
}

// Header returns the trace header.
func (r *Reader) Header() Header { return r.header }

func (r *Reader) source() io.Reader {
	if r.gz != nil {
		return r.gz
	}
	return r.br
}

// Next reads the next session into s. It returns io.EOF at the end of the
// trace. A torn tail — the stream ending mid-record, as a crashed writer
// leaves it — is recovered, not fatal: the partial record is skipped with
// a warning, the reader marks itself torn, and Next reports a clean
// io.EOF. Everything before the tear has already been returned intact.
func (r *Reader) Next(s *session.Session) error {
	if r.closed {
		return ErrClosed
	}
	if _, err := io.ReadFull(r.source(), r.buf); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			r.torn = true
			if r.Logf != nil {
				r.Logf("trace: torn tail record skipped (crashed writer?); sessions before it are intact")
			}
			return io.EOF
		}
		return err
	}
	_, err := session.DecodeBinary(r.buf, s)
	return err
}

// ForEach streams every session through fn, stopping at the first error.
func (r *Reader) ForEach(fn func(*session.Session) error) error {
	var s session.Session
	for {
		err := r.Next(&s)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(&s); err != nil {
			return err
		}
	}
}

// Close closes the reader.
func (r *Reader) Close() error {
	if r.closed {
		return ErrClosed
	}
	r.closed = true
	if r.gz != nil {
		if err := r.gz.Close(); err != nil {
			if r.raw != nil {
				_ = r.raw.Close() // the gzip error takes precedence
			}
			return err
		}
	}
	if r.raw != nil {
		return r.raw.Close()
	}
	return nil
}
