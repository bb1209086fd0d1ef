package telemetry

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Capture is a fully materialised telemetry stream: Samples() rows of
// Spec().Series() values each, stored row-major with the cycle number
// at column 0 (the layout Recorder.Append takes, so a capture can be
// re-encoded row by row).
type Capture struct {
	spec Spec
	data []uint64 // samples * m, row-major
}

// Decode reads one complete capture from r. It validates the magic,
// the spec, and every frame; a truncated or corrupt stream is an
// error, not a short result.
func Decode(r io.Reader) (*Capture, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("telemetry: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("telemetry: bad magic %q", magic)
	}
	var spec Spec
	for _, dst := range []*int{&spec.Nodes, &spec.Links, &spec.ChunkLen} {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("telemetry: reading header: %w", err)
		}
		*dst = int(v)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	c := &Capture{spec: spec}
	m := spec.Series()
	var payload bytes.Buffer
	col := make([]uint64, spec.ChunkLen)
	for {
		plen, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: reading frame length: %w", err)
		}
		// The buffer grows with the bytes actually read, not with the
		// length the frame claims.
		payload.Reset()
		n, err := payload.ReadFrom(io.LimitReader(br, int64(min(plen, math.MaxInt64))))
		if err == nil && uint64(n) != plen {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: reading %d-byte frame: %w", plen, err)
		}
		if err := c.decodeChunk(payload.Bytes(), m, col); err != nil {
			return nil, err
		}
	}
}

// decodeChunk appends one frame's rows to c.data. col is scratch for
// one decoded series.
func (c *Capture) decodeChunk(p []byte, m int, col []uint64) error {
	count, n := binary.Uvarint(p)
	if n <= 0 || count == 0 || count > uint64(c.spec.ChunkLen) {
		return fmt.Errorf("telemetry: bad chunk sample count %d", count)
	}
	p = p[n:]
	if len(p) < m {
		return fmt.Errorf("telemetry: %d-byte chunk cannot hold %d series", len(p), m)
	}
	cnt := int(count)
	base := len(c.data)
	c.data = append(c.data, make([]uint64, cnt*m)...)
	for s := 0; s < m; s++ {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return fmt.Errorf("telemetry: truncated series %d", s)
		}
		p = p[n:]
		col[0] = v
		for i := 1; i < cnt; {
			u, n := binary.Uvarint(p)
			if n <= 0 {
				return fmt.Errorf("telemetry: truncated series %d at sample %d", s, i)
			}
			p = p[n:]
			if u == 0 {
				extra, n := binary.Uvarint(p)
				if n <= 0 {
					return fmt.Errorf("telemetry: truncated zero run in series %d", s)
				}
				p = p[n:]
				if extra >= uint64(cnt-i) {
					return fmt.Errorf("telemetry: zero run of %d+1 overflows chunk of %d in series %d", extra, cnt, s)
				}
				run := int(extra) + 1
				for k := 0; k < run; k++ {
					col[i] = v
					i++
				}
				continue
			}
			v += uint64(unzigzag(u))
			col[i] = v
			i++
		}
		for i := 0; i < cnt; i++ {
			c.data[base+i*m+s] = col[i]
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("telemetry: %d trailing bytes in chunk", len(p))
	}
	return nil
}

// Spec returns the capture's shape.
func (c *Capture) Spec() Spec { return c.spec }

// Samples returns the number of decoded rows.
func (c *Capture) Samples() int {
	if m := c.spec.Series(); m > 0 {
		return len(c.data) / m
	}
	return 0
}

// Row returns sample i's raw values (cycle at index 0), aliasing the
// capture's backing store.
func (c *Capture) Row(i int) []uint64 {
	m := c.spec.Series()
	return c.data[i*m : (i+1)*m]
}

// Cycle returns the simulation cycle of sample i.
func (c *Capture) Cycle(i int) uint64 { return c.data[i*c.spec.Series()] }

// Occ returns the buffered-flit occupancy of node at sample i.
func (c *Capture) Occ(i, node int) uint64 { return c.Row(i)[1+node] }

// Inj returns node's cumulative injected flits at sample i.
func (c *Capture) Inj(i, node int) uint64 { return c.Row(i)[1+c.spec.Nodes+node] }

// Ej returns node's cumulative ejected flits at sample i.
func (c *Capture) Ej(i, node int) uint64 { return c.Row(i)[1+2*c.spec.Nodes+node] }

// Link returns channel l's cumulative flit traversals at sample i.
func (c *Capture) Link(i, l int) uint64 { return c.Row(i)[1+3*c.spec.Nodes+l] }
