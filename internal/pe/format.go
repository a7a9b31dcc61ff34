// Package pe implements SPE, the synthetic Portable-Executable-like binary
// format used by every sample in the cyber-range.
//
// SPE reproduces the structural features the paper's dissection relies on —
// named sections, an import table, numbered resources that may be stored
// XOR-encrypted (Shamoon's TrkSvr.exe), a machine word (the 64-bit variant
// shipped as a resource), and a detachable signature blob (signed rootkit
// drivers, the forged Windows Update binary) — in a compact little-endian
// encoding of our own design. It is not a real PE and cannot execute.
package pe

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Magic identifies an SPE image.
var Magic = [4]byte{'S', 'P', 'E', '1'}

// Machine is the target architecture word.
type Machine uint16

// Architectures used by the modelled samples.
const (
	MachineX86 Machine = 0x014c
	MachineX64 Machine = 0x8664
)

func (m Machine) String() string {
	switch m {
	case MachineX86:
		return "x86"
	case MachineX64:
		return "x64"
	default:
		return fmt.Sprintf("machine(%#x)", uint16(m))
	}
}

// Section characteristics flags.
const (
	SecCode  uint32 = 1 << 0
	SecData  uint32 = 1 << 1
	SecRsrc  uint32 = 1 << 2
	SecExec  uint32 = 1 << 3
	SecWrite uint32 = 1 << 4
)

// Section is a named region of the image.
type Section struct {
	Name            string
	Characteristics uint32
	Data            []byte
}

// Import names one library and the functions taken from it.
type Import struct {
	Library   string
	Functions []string
}

// Resource is a numbered payload embedded in the image. Raw holds the bytes
// exactly as stored: for encrypted resources that is the XOR ciphertext —
// the key is never stored in the file, mirroring how Shamoon's resources
// required key recovery during dissection.
type Resource struct {
	ID  uint16
	Raw []byte
}

// File is a parsed or under-construction SPE image.
type File struct {
	Name       string // image name, e.g. "TrkSvr.exe"
	Machine    Machine
	Timestamp  time.Time
	EntryPoint uint32
	Sections   []Section
	Imports    []Import
	Resources  []Resource
	// SigBlob is an opaque signature attachment (produced and checked by
	// the pki package). It is excluded from Digest.
	SigBlob []byte
}

// Hard limits enforced by Marshal and Parse. They are generous for the
// modelled samples but keep a hostile input from ballooning memory.
const (
	maxNameLen    = 255
	maxSections   = 64
	maxImports    = 256
	maxFunctions  = 1024
	maxResources  = 128
	maxSectionLen = 64 << 20
	maxTotalLen   = 128 << 20
)

// Marshal encodes the image. The layout is:
//
//	magic[4] machine u16 flags u16 timestamp i64 entry u32
//	name: u8 len + bytes
//	sections u16: (name u8, chars u32, data u32+bytes)*
//	imports u16: (lib u8, funcs u16: (name u8)*)*
//	resources u16: (id u16, data u32+bytes)*
//	sig u32 + bytes
//
// All integers are little-endian.
func (f *File) Marshal() ([]byte, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.Grow(f.marshalledSize())
	b.Write(Magic[:])
	writeU16(&b, uint16(f.Machine))
	writeU16(&b, 0) // flags, reserved
	writeI64(&b, f.Timestamp.Unix())
	writeU32(&b, f.EntryPoint)
	writeStr8(&b, f.Name)

	writeU16(&b, uint16(len(f.Sections)))
	for _, s := range f.Sections {
		writeStr8(&b, s.Name)
		writeU32(&b, s.Characteristics)
		writeBytes32(&b, s.Data)
	}

	writeU16(&b, uint16(len(f.Imports)))
	for _, imp := range f.Imports {
		writeStr8(&b, imp.Library)
		writeU16(&b, uint16(len(imp.Functions)))
		for _, fn := range imp.Functions {
			writeStr8(&b, fn)
		}
	}

	writeU16(&b, uint16(len(f.Resources)))
	for _, r := range f.Resources {
		writeU16(&b, r.ID)
		writeBytes32(&b, r.Raw)
	}

	writeBytes32(&b, f.SigBlob)
	if b.Len() > maxTotalLen {
		return nil, fmt.Errorf("pe: image %q exceeds %d bytes", f.Name, maxTotalLen)
	}
	return b.Bytes(), nil
}

// marshalledSize computes the exact encoded length so Marshal can size its
// buffer once. Growing incrementally doubled through every resource-laden
// image and dominated fleet-scale infection allocations.
func (f *File) marshalledSize() int {
	n := 4 + 2 + 2 + 8 + 4 // magic, machine, flags, timestamp, entry
	n += 1 + len(f.Name)
	n += 2
	for _, s := range f.Sections {
		n += 1 + len(s.Name) + 4 + 4 + len(s.Data)
	}
	n += 2
	for _, imp := range f.Imports {
		n += 1 + len(imp.Library) + 2
		for _, fn := range imp.Functions {
			n += 1 + len(fn)
		}
	}
	n += 2
	for _, r := range f.Resources {
		n += 2 + 4 + len(r.Raw)
	}
	n += 4 + len(f.SigBlob)
	return n
}

func (f *File) validate() error {
	switch {
	case len(f.Name) > maxNameLen:
		return fmt.Errorf("pe: image name too long (%d)", len(f.Name))
	case len(f.Sections) > maxSections:
		return fmt.Errorf("pe: too many sections (%d)", len(f.Sections))
	case len(f.Imports) > maxImports:
		return fmt.Errorf("pe: too many imports (%d)", len(f.Imports))
	case len(f.Resources) > maxResources:
		return fmt.Errorf("pe: too many resources (%d)", len(f.Resources))
	}
	for _, s := range f.Sections {
		if len(s.Name) > maxNameLen {
			return fmt.Errorf("pe: section name too long (%d)", len(s.Name))
		}
		if len(s.Data) > maxSectionLen {
			return fmt.Errorf("pe: section %q too large (%d)", s.Name, len(s.Data))
		}
	}
	for _, imp := range f.Imports {
		if len(imp.Library) > maxNameLen {
			return fmt.Errorf("pe: import library name too long (%d)", len(imp.Library))
		}
		if len(imp.Functions) > maxFunctions {
			return fmt.Errorf("pe: import %q has too many functions (%d)", imp.Library, len(imp.Functions))
		}
		for _, fn := range imp.Functions {
			if len(fn) > maxNameLen {
				return fmt.Errorf("pe: import function name too long (%d)", len(fn))
			}
		}
	}
	for _, r := range f.Resources {
		if len(r.Raw) > maxSectionLen {
			return fmt.Errorf("pe: resource %d too large (%d)", r.ID, len(r.Raw))
		}
	}
	return nil
}

// Digest returns the SHA-256 of the image with the signature blob removed.
// It is the value that signatures cover and the sample-identity key used by
// the malware behaviour registry. It marshals the image, so it reflects
// every field as it is now; ParseDigest computes the same value from an
// image's bytes without the copy.
func (f *File) Digest() ([32]byte, error) {
	clone := *f
	clone.SigBlob = nil
	raw, err := clone.Marshal()
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(raw), nil
}

// MustDigest is Digest for images already known to marshal; it panics on
// malformed images (a programming error in scenario construction).
func (f *File) MustDigest() [32]byte {
	d, err := f.Digest()
	if err != nil {
		panic(fmt.Sprintf("pe: MustDigest(%q): %v", f.Name, err))
	}
	return d
}

// Size returns the marshalled size in bytes, or 0 for malformed images.
func (f *File) Size() int {
	raw, err := f.Marshal()
	if err != nil {
		return 0
	}
	return len(raw)
}

// Section returns the named section, or nil.
func (f *File) Section(name string) *Section {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return &f.Sections[i]
		}
	}
	return nil
}

// Resource returns the resource with the given id, or nil.
func (f *File) Resource(id uint16) *Resource {
	for i := range f.Resources {
		if f.Resources[i].ID == id {
			return &f.Resources[i]
		}
	}
	return nil
}

// AddEncryptedResource embeds plaintext as resource id, XOR-encrypted with
// key. The key is not stored in the image.
func (f *File) AddEncryptedResource(id uint16, key, plaintext []byte) {
	f.Resources = append(f.Resources, Resource{ID: id, Raw: XOR(plaintext, key)})
}

// ErrBadMagic is returned by Parse for non-SPE input.
var ErrBadMagic = errors.New("pe: bad magic (not an SPE image)")

func writeU16(b *bytes.Buffer, v uint16) {
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], v)
	b.Write(tmp[:])
}

func writeU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func writeI64(b *bytes.Buffer, v int64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(v))
	b.Write(tmp[:])
}

func writeStr8(b *bytes.Buffer, s string) {
	b.WriteByte(byte(len(s)))
	b.WriteString(s)
}

func writeBytes32(b *bytes.Buffer, data []byte) {
	writeU32(b, uint32(len(data)))
	b.Write(data)
}
