package jobd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/wire"
)

// Event frames are the binary form of an events stream, served to a
// request whose Accept header names framesType. Every frame is a
// little-endian uint32 length and that many bytes. An event is two
// frames: its JSON header — the NDJSON line without mesh_b64 and without
// the newline — then its raw canonical mesh (an empty frame when it has
// none). The stream ends with one empty header frame, the end frame,
// written only once the job's log is closed; a stream that stops without
// it was cut short.
const framesType = "application/x-tess-events"

// maxFrameLen bounds one frame: a longer length is rejected before
// anything is allocated for it.
const maxFrameLen = 64 << 20

// eventWriter writes one events response in one framing.
type eventWriter interface {
	event(e *Event) error
	// end marks the stream complete; called only once the log is closed.
	end() error
}

// newEventWriter picks the response's framing from its request: frames
// when the Accept header names them, NDJSON otherwise.
func newEventWriter(w http.ResponseWriter, r *http.Request) eventWriter {
	for _, v := range r.Header.Values("Accept") {
		for _, part := range strings.Split(v, ",") {
			if mt, _, _ := strings.Cut(part, ";"); strings.TrimSpace(mt) == framesType {
				w.Header().Set("Content-Type", framesType)
				return newFrameWriter(w)
			}
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	return ndjsonWriter{json.NewEncoder(w)}
}

// ndjsonWriter writes each event as one JSON line, its mesh in base64.
type ndjsonWriter struct{ enc *json.Encoder }

func (nw ndjsonWriter) event(e *Event) error {
	line := *e
	line.MeshB64 = meshB64(e.mesh)
	return nw.enc.Encode(&line)
}

func (ndjsonWriter) end() error { return nil }

// frameWriter writes event frames.
type frameWriter struct {
	w      io.Writer
	hdr    bytes.Buffer // the header being encoded
	enc    *json.Encoder
	prefix [4]byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	fw := &frameWriter{w: w}
	fw.enc = json.NewEncoder(&fw.hdr)
	return fw
}

// event writes e's header and mesh frames. e.MeshB64 must be empty: the
// mesh travels in its own frame.
func (fw *frameWriter) event(e *Event) error {
	hdr, err := encodeHeader(fw.enc, &fw.hdr, e)
	if err == nil {
		err = fw.frame(hdr)
	}
	if err == nil {
		err = fw.frame(e.mesh)
	}
	return err
}

func (fw *frameWriter) end() error { return fw.frame(nil) }

func (fw *frameWriter) frame(b []byte) error {
	p := wire.WriterOn(fw.prefix[:0])
	p.U32(uint32(len(b)))
	if _, err := fw.w.Write(p.Bytes()); err != nil {
		return err
	}
	_, err := fw.w.Write(b)
	return err
}

// encodeHeader is e's header frame: its JSON through enc, which writes to
// buf, without the newline Encode ends with.
func encodeHeader(enc *json.Encoder, buf *bytes.Buffer, e *Event) ([]byte, error) {
	buf.Reset()
	if err := enc.Encode(e); err != nil {
		return nil, err
	}
	return buf.Bytes()[:buf.Len()-1], nil
}

// errFrames is wrapped by every malformed-stream error of readFrames.
var errFrames = errors.New("jobd: event frames")

// readFrames decodes an event-frame stream to its end frame, calling fn
// for each event with MeshB64 filled from the mesh frame. A stream that
// stops before its end frame — between frames or inside one — is an
// error wrapping io.ErrUnexpectedEOF. A header must be byte for byte what
// the daemon writes for the event it decodes to, so a stream that
// decodes re-encodes to itself. One header buffer and one mesh buffer
// serve the whole stream.
func readFrames(r io.Reader, fn func(Event) error) error {
	var (
		prefix    [4]byte
		hdr, mesh []byte
		canon     bytes.Buffer
	)
	enc := json.NewEncoder(&canon)
	next := func(buf []byte) ([]byte, error) {
		if _, err := io.ReadFull(r, prefix[:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the stream ended without its end frame
			}
			return nil, fmt.Errorf("%w: %w", errFrames, err)
		}
		n := wire.NewReader(prefix[:]).U32()
		if n > maxFrameLen {
			return nil, fmt.Errorf("%w: frame of %d bytes exceeds the limit of %d", errFrames, n, maxFrameLen)
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%w: %w", errFrames, err)
		}
		return buf, nil
	}
	for {
		var err error
		if hdr, err = next(hdr); err != nil {
			return err
		}
		if len(hdr) == 0 { // the end frame, which must end the stream
			if _, err := io.ReadFull(r, prefix[:1]); err != io.EOF {
				if err == nil {
					err = errors.New("bytes after the end frame")
				}
				return fmt.Errorf("%w: %w", errFrames, err)
			}
			return nil
		}
		var e Event
		if err := json.Unmarshal(hdr, &e); err != nil {
			return fmt.Errorf("%w: header: %w", errFrames, err)
		}
		if e.MeshB64 != "" {
			return fmt.Errorf("%w: header of event %d carries mesh_b64", errFrames, e.Seq)
		}
		if want, err := encodeHeader(enc, &canon, &e); err != nil || !bytes.Equal(hdr, want) {
			return fmt.Errorf("%w: header of event %d is not in the daemon's encoding", errFrames, e.Seq)
		}
		if mesh, err = next(mesh); err != nil {
			return err
		}
		e.MeshB64 = meshB64(mesh)
		if err := fn(e); err != nil {
			return err
		}
	}
}
