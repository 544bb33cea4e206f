package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// The binary snapshot encoding of every Store, on disk and in the fleet's
// checkpoint blob space:
//
//	magic                 8 bytes, codecMagic
//	header length         4 bytes, little-endian uint32
//	header                JSON: the Snapshot without its two line images,
//	                      plus the images' byte lengths
//	L1 line image         raw bytes (mem.CacheState.Lines)
//	L2 line image         raw bytes
//
// The line images are most of a snapshot (the L2's alone is about 1 MiB at
// Table 1 geometry); keeping them out of the JSON saves base64's third and
// lets Decode use them in place.

// codecMagic opens every encoded snapshot. A legacy all-JSON snapshot
// starts with '{' and is rejected by the first byte.
const codecMagic = "ELSQCKP1"

// codecHeader is the JSON header: the snapshot with Hier's line images
// cleared, and the length of each image that follows.
type codecHeader struct {
	Snapshot
	// Images holds the byte lengths of the L1 and L2 line images.
	Images [2]int `json:"images"`
}

// Encode returns the binary encoding of s.
func Encode(s *Snapshot) ([]byte, error) {
	if s.Source == nil || s.Hier == nil || s.Hier.L1 == nil || s.Hier.L2 == nil {
		return nil, errors.New("ckpt: encode of an incomplete snapshot")
	}
	l1, l2 := s.Hier.L1.Lines, s.Hier.L2.Lines
	hier := *s.Hier
	c1, c2 := *hier.L1, *hier.L2
	c1.Lines, c2.Lines = nil, nil
	hier.L1, hier.L2 = &c1, &c2
	h := codecHeader{Snapshot: *s, Images: [2]int{len(l1), len(l2)}}
	h.Hier = &hier
	hb, err := json.Marshal(&h)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode header: %w", err)
	}
	out := make([]byte, 0, len(codecMagic)+4+len(hb)+len(l1)+len(l2))
	out = append(out, codecMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hb)))
	out = append(out, hb...)
	out = append(out, l1...)
	return append(out, l2...), nil
}

// Decode parses an encoded snapshot. The returned snapshot's line images
// are slices of b, not copies, so b must not be modified afterwards. Every
// length is checked against b, and a snapshot missing its source or either
// cache image is an error; the caller still checks Version and Key.
func Decode(b []byte) (*Snapshot, error) {
	const pre = len(codecMagic) + 4
	if len(b) < pre || string(b[:len(codecMagic)]) != codecMagic {
		return nil, errors.New("ckpt: not an encoded snapshot")
	}
	rest := b[pre:]
	hlen := binary.LittleEndian.Uint32(b[len(codecMagic):pre])
	if uint64(hlen) > uint64(len(rest)) {
		return nil, fmt.Errorf("ckpt: header of %d bytes overruns the %d remaining", hlen, len(rest))
	}
	var h codecHeader
	if err := json.Unmarshal(rest[:hlen], &h); err != nil {
		return nil, fmt.Errorf("ckpt: decode header: %w", err)
	}
	rest = rest[hlen:]
	s := &h.Snapshot
	if s.Source == nil || s.Hier == nil || s.Hier.L1 == nil || s.Hier.L2 == nil {
		return nil, errors.New("ckpt: incomplete snapshot")
	}
	n1, n2 := h.Images[0], h.Images[1]
	if n1 < 0 || n2 < 0 || n1 > len(rest) || n2 != len(rest)-n1 {
		return nil, fmt.Errorf("ckpt: line images of %d and %d bytes do not fill the %d remaining", n1, n2, len(rest))
	}
	s.Hier.L1.Lines = rest[:n1:n1]
	s.Hier.L2.Lines = rest[n1:]
	return s, nil
}
