package host

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/pe"
)

// ImageMemo remembers the parsed image and digest of every shared file
// (FS.WriteShared) executed through it, so a dropper that lands on 30,000
// hosts as one aliased buffer is parsed and hashed once, not once per
// host. A world hands one memo to all of its hosts (DESIGN.md §9).
//
// The key is the buffer's identity: its first byte's address and its
// length. WriteShared's contract makes the bytes behind that identity
// immutable, and the entry holds the slice, so the address cannot be
// freed and reused for other bytes while the memo lives. Owned and lazy
// nodes are parsed on every execution as before, and a failed parse is
// never stored.
//
// The images it hands out are shared by every host that executes the
// buffer, so they are read-only: dispatchers, implants and security
// products must not mutate an image they are given. Hosts of a
// partitioned world execute on several goroutines at once, hence the
// mutex.
type ImageMemo struct {
	mu     sync.Mutex
	images map[imageKey]memoImage
}

type imageKey struct {
	first *byte
	n     int
}

type memoImage struct {
	buf    []byte // pins the buffer, so its address is never reused
	img    *pe.File
	digest [32]byte
}

// NewImageMemo returns an empty memo.
func NewImageMemo() *ImageMemo {
	return &ImageMemo{images: make(map[imageKey]memoImage)}
}

// parse returns the image stored in f and its digest.
func (m *ImageMemo) parse(f *FileNode) (*pe.File, [32]byte, error) {
	if !f.shared || len(f.data) == 0 {
		return pe.ParseDigest(f.Bytes())
	}
	key := imageKey{first: &f.data[0], n: len(f.data)}
	m.mu.Lock()
	e, ok := m.images[key]
	m.mu.Unlock()
	if ok {
		return e.img, e.digest, nil
	}
	img, digest, err := pe.ParseDigest(f.data)
	if err != nil {
		return nil, digest, err
	}
	m.mu.Lock()
	// Another goroutine may have stored the same buffer meanwhile; keep
	// the first entry so every host sees one image.
	if e, ok = m.images[key]; !ok {
		e = memoImage{buf: f.data, img: img, digest: digest}
		m.images[key] = e
	}
	m.mu.Unlock()
	return e.img, e.digest, nil
}

// Verify checks every memoized image against the bytes it was parsed
// from: since Parse is canonical, an image nobody mutated marshals back
// to exactly its buffer. It returns how many images it checked and an
// error naming the first one that no longer does.
func (m *ImageMemo) Verify() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.images {
		raw, err := e.img.Marshal()
		if err != nil {
			return 0, fmt.Errorf("host: memoized image %q: %w", e.img.Name, err)
		}
		if !bytes.Equal(raw, e.buf) {
			return 0, fmt.Errorf("host: memoized image %q was mutated", e.img.Name)
		}
	}
	return len(m.images), nil
}
