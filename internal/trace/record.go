package trace

// Per-record wire codec. A committed-path instruction is encoded as:
//
//	flags byte:  bits 0-2 op class, bit 3 taken, bit 4 mispred,
//	             bits 5-6 log2(access size) for memory ops, bit 7 reserved
//	uvarint:     dst+1, src1+1, src2+1  (register numbers; 0 encodes NoReg)
//	zigzag varint (memory ops only): effective address delta from the
//	             previous memory record of the same block
//
// The address delta base resets to zero at every block boundary, so blocks
// decode independently. Sequence numbers are not stored: records are the
// committed program order, so a record's sequence number is its position.
// Wrong-path instructions are never recorded — replay re-synthesises them
// (see Source).

import (
	"encoding/binary"
	"fmt"
	"hash"

	"repro/internal/isa"
)

// maxRecordBytes bounds one encoded record: 1 flags byte, three 1-byte
// register varints (registers are < 64) and a worst-case 10-byte address
// delta. Block-size sanity checks in the parser derive from it.
const maxRecordBytes = 1 + 3 + binary.MaxVarintLen64

// sizeLog2 maps an access size (1, 2, 4, 8) to its 2-bit exponent.
func sizeLog2(size uint8) (uint8, error) {
	switch size {
	case 1:
		return 0, nil
	case 2:
		return 1, nil
	case 4:
		return 2, nil
	case 8:
		return 3, nil
	}
	return 0, fmt.Errorf("trace: unencodable access size %d", size)
}

// zigzag maps a signed delta onto the unsigned varint space so small
// magnitudes of either sign encode short.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendRecord encodes in onto buf and returns the extended buffer plus the
// updated address-delta base.
func appendRecord(buf []byte, in *isa.Inst, prevAddr uint64) ([]byte, uint64, error) {
	if in.WrongPath {
		return buf, prevAddr, fmt.Errorf("trace: wrong-path instruction in committed stream (seq %d)", in.Seq)
	}
	if in.Op >= isa.OpClass(8) {
		return buf, prevAddr, fmt.Errorf("trace: unencodable op class %d", in.Op)
	}
	flags := uint8(in.Op)
	if in.Taken {
		flags |= 1 << 3
	}
	if in.Mispred {
		flags |= 1 << 4
	}
	if in.IsMem() {
		lg, err := sizeLog2(in.Size)
		if err != nil {
			return buf, prevAddr, err
		}
		flags |= lg << 5
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(in.Dst+1))
	buf = binary.AppendUvarint(buf, uint64(in.Src1+1))
	buf = binary.AppendUvarint(buf, uint64(in.Src2+1))
	if in.IsMem() {
		buf = binary.AppendUvarint(buf, zigzag(int64(in.Addr-prevAddr)))
		prevAddr = in.Addr
	}
	return buf, prevAddr, nil
}

// decodeRecord decodes one record from buf into out (Seq and WrongPath are
// left untouched; the caller owns positioning). It returns the remaining
// buffer and the updated address-delta base.
func decodeRecord(buf []byte, out *isa.Inst, prevAddr uint64) ([]byte, uint64, error) {
	if len(buf) == 0 {
		return nil, prevAddr, fmt.Errorf("trace: truncated record")
	}
	flags := buf[0]
	buf = buf[1:]
	out.Op = isa.OpClass(flags & 7)
	out.Taken = flags&(1<<3) != 0
	out.Mispred = flags&(1<<4) != 0
	reg := func() (int16, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 || v > uint64(isa.NumRegs) {
			return 0, fmt.Errorf("trace: bad register field")
		}
		buf = buf[n:]
		return int16(v) - 1, nil
	}
	var err error
	if out.Dst, err = reg(); err != nil {
		return nil, prevAddr, err
	}
	if out.Src1, err = reg(); err != nil {
		return nil, prevAddr, err
	}
	if out.Src2, err = reg(); err != nil {
		return nil, prevAddr, err
	}
	if out.Op.IsMem() {
		d, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, prevAddr, fmt.Errorf("trace: bad address delta")
		}
		buf = buf[n:]
		prevAddr += uint64(unzigzag(d))
		out.Addr = prevAddr
		out.Size = 1 << ((flags >> 5) & 3)
	} else {
		out.Addr, out.Size = 0, 0
	}
	return buf, prevAddr, nil
}

// canonicalBytes is the size of one record's canonical digest form.
const canonicalBytes = 17

// foldRecord feeds the record's canonical form into the content digest. The
// canonical form is independent of block size and wire encoding, so the
// digest identifies the instruction stream itself, not its storage layout.
// b is caller-owned scratch: a local array handed to hash.Hash.Write would
// escape to the heap once per record.
func foldRecord(h hash.Hash, b *[canonicalBytes]byte, in *isa.Inst) {
	b[0] = uint8(in.Op)
	b[1] = in.Size
	b[2] = 0
	if in.Taken {
		b[2] |= 1
	}
	if in.Mispred {
		b[2] |= 2
	}
	binary.LittleEndian.PutUint16(b[3:], uint16(in.Dst))
	binary.LittleEndian.PutUint16(b[5:], uint16(in.Src1))
	binary.LittleEndian.PutUint16(b[7:], uint16(in.Src2))
	binary.LittleEndian.PutUint64(b[9:], in.Addr)
	h.Write(b[:])
}
