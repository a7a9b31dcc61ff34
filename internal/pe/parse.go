package pe

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"
)

// Parse decodes an SPE image, validating every length field against both
// the declared limits and the remaining input so that truncated or hostile
// input fails cleanly instead of panicking.
//
// Parse is canonical: it accepts only byte strings Marshal can produce, so
// Marshal(Parse(b)) == b for every accepted b. In particular the reserved
// flags word must be zero: a signature covers the digest of the parsed
// image, and bytes Parse dropped could change without breaking it.
func Parse(raw []byte) (*File, error) {
	f, _, err := parse(raw)
	return f, err
}

// ParseDigest is Parse followed by Digest, with the digest hashed straight
// from raw instead of from a re-marshalled copy. Because Parse is
// canonical, raw up to the signature blob's length field is exactly what
// Marshal writes for the image with its SigBlob removed; a zero length
// completes that encoding. It fails exactly when Parse does: an accepted
// image is at most maxTotalLen bytes, so its unsigned encoding is too.
func ParseDigest(raw []byte) (*File, [32]byte, error) {
	var d [32]byte
	f, sigAt, err := parse(raw)
	if err != nil {
		return nil, d, err
	}
	h := sha256.New()
	h.Write(raw[:sigAt])
	h.Write([]byte{0, 0, 0, 0})
	h.Sum(d[:0])
	return f, d, nil
}

// parse decodes raw and returns the offset of the signature blob's length
// field with the image.
func parse(raw []byte) (*File, int, error) {
	if len(raw) > maxTotalLen {
		return nil, 0, fmt.Errorf("pe: input of %d bytes exceeds %d", len(raw), maxTotalLen)
	}
	r := reader{buf: raw}
	f, err := r.image()
	if err != nil {
		return nil, 0, err
	}
	sigAt := r.pos
	if f.SigBlob, err = r.bytes32(); err != nil {
		return nil, 0, fmt.Errorf("pe: signature blob: %w", err)
	}
	if len(f.SigBlob) == 0 {
		f.SigBlob = nil
	}
	if r.pos != len(r.buf) {
		return nil, 0, fmt.Errorf("pe: %d trailing bytes after image", len(r.buf)-r.pos)
	}
	return f, sigAt, nil
}

// image decodes everything in front of the signature blob.
func (r *reader) image() (*File, error) {
	magic, err := r.take(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != string(Magic[:]) {
		return nil, ErrBadMagic
	}
	f := &File{}
	machine, err := r.u16()
	if err != nil {
		return nil, err
	}
	f.Machine = Machine(machine)
	flags, err := r.u16()
	if err != nil {
		return nil, err
	}
	if flags != 0 {
		return nil, fmt.Errorf("pe: reserved flags %#04x are not zero", flags)
	}
	ts, err := r.i64()
	if err != nil {
		return nil, err
	}
	f.Timestamp = time.Unix(ts, 0).UTC()
	if f.EntryPoint, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Name, err = r.str8(); err != nil {
		return nil, err
	}

	nsec, err := r.u16()
	if err != nil {
		return nil, err
	}
	if nsec > maxSections {
		return nil, fmt.Errorf("pe: section count %d exceeds limit", nsec)
	}
	f.Sections = make([]Section, 0, nsec)
	for i := 0; i < int(nsec); i++ {
		var s Section
		if s.Name, err = r.str8(); err != nil {
			return nil, fmt.Errorf("pe: section %d: %w", i, err)
		}
		if s.Characteristics, err = r.u32(); err != nil {
			return nil, fmt.Errorf("pe: section %d: %w", i, err)
		}
		if s.Data, err = r.bytes32(); err != nil {
			return nil, fmt.Errorf("pe: section %q: %w", s.Name, err)
		}
		f.Sections = append(f.Sections, s)
	}

	nimp, err := r.u16()
	if err != nil {
		return nil, err
	}
	if nimp > maxImports {
		return nil, fmt.Errorf("pe: import count %d exceeds limit", nimp)
	}
	f.Imports = make([]Import, 0, nimp)
	for i := 0; i < int(nimp); i++ {
		var imp Import
		if imp.Library, err = r.str8(); err != nil {
			return nil, fmt.Errorf("pe: import %d: %w", i, err)
		}
		nfn, err := r.u16()
		if err != nil {
			return nil, fmt.Errorf("pe: import %q: %w", imp.Library, err)
		}
		if nfn > maxFunctions {
			return nil, fmt.Errorf("pe: import %q function count %d exceeds limit", imp.Library, nfn)
		}
		imp.Functions = make([]string, 0, nfn)
		for j := 0; j < int(nfn); j++ {
			fn, err := r.str8()
			if err != nil {
				return nil, fmt.Errorf("pe: import %q function %d: %w", imp.Library, j, err)
			}
			imp.Functions = append(imp.Functions, fn)
		}
		f.Imports = append(f.Imports, imp)
	}

	nres, err := r.u16()
	if err != nil {
		return nil, err
	}
	if nres > maxResources {
		return nil, fmt.Errorf("pe: resource count %d exceeds limit", nres)
	}
	f.Resources = make([]Resource, 0, nres)
	for i := 0; i < int(nres); i++ {
		var res Resource
		if res.ID, err = r.u16(); err != nil {
			return nil, fmt.Errorf("pe: resource %d: %w", i, err)
		}
		if res.Raw, err = r.bytes32(); err != nil {
			return nil, fmt.Errorf("pe: resource %d: %w", res.ID, err)
		}
		f.Resources = append(f.Resources, res)
	}
	return f, nil
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, fmt.Errorf("pe: truncated input (need %d bytes at offset %d of %d)", n, r.pos, len(r.buf))
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) i64() (int64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

func (r *reader) str8() (string, error) {
	lb, err := r.take(1)
	if err != nil {
		return "", err
	}
	b, err := r.take(int(lb[0]))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) bytes32() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > maxSectionLen {
		return nil, fmt.Errorf("pe: declared length %d exceeds limit", n)
	}
	b, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}
