package wire

import (
	"encoding/binary"
)

// Batch framing packs several messages into one datagram: each message
// is preceded by a 2-byte little-endian length. The live transport
// frames the message of every record with it, so the records a
// dispatcher emits toward every node behind one socket share a single
// send, amortizing the syscall.
//
// A frame length is bounded by the same u16 discipline as every other
// count in the codec; a message whose encoding exceeds MaxFrame cannot
// be framed, and the live transport drops it (UDP caps the payload
// below 64K anyway, so the bound costs nothing that the network would
// not).

// FrameOverhead is the per-message framing cost in bytes.
const FrameOverhead = 2

// MaxFrame is the largest message encoding a frame can carry.
const MaxFrame = 1<<16 - 1

// AppendFrame appends msg as one length-prefixed frame onto buf. The
// caller must ensure msg.WireSize() ≤ MaxFrame (Fits reports this);
// oversized messages panic at the same choke point as oversized counts.
func AppendFrame(buf []byte, msg Message) []byte {
	sz := msg.WireSize()
	if sz > MaxFrame {
		panic("wire: message too large for batch frame")
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(sz))
	return msg.Append(buf)
}

// Fits reports whether msg can be carried as a frame at all.
func Fits(msg Message) bool { return msg.WireSize() <= MaxFrame }

// NextFrame splits the first length-prefixed frame off buf, returning
// the encoded message bytes and the remainder. An empty buf is not an
// error at this layer — callers detect the end of a batch by len(rest)
// reaching zero — but a partial header or a short body is ErrTruncated.
func NextFrame(buf []byte) (frame, rest []byte, err error) {
	if len(buf) < FrameOverhead {
		return nil, nil, ErrTruncated
	}
	sz := int(binary.LittleEndian.Uint16(buf))
	if len(buf) < FrameOverhead+sz {
		return nil, nil, ErrTruncated
	}
	return buf[FrameOverhead : FrameOverhead+sz], buf[FrameOverhead+sz:], nil
}
