package fs

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"hash/crc32"
	"testing"

	"repro/internal/abi"
)

// rawZip builds a one-member archive whose header carries exactly the
// given method and sizes over the given stored bytes — how a corrupt or
// hostile archive can declare any size it likes.
func rawZip(t testing.TB, method uint16, declared, compressed uint64, body []byte, crc uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.CreateRaw(&zip.FileHeader{
		Name: "m", Method: method, CRC32: crc,
		UncompressedSize64: declared, CompressedSize64: compressed,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Write(body)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func deflated(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestCompression)
	fw.Write(data)
	fw.Close()
	return buf.Bytes()
}

// openZipMember opens /m and returns its errno and, on success, bytes.
func openZipMember(t testing.TB, archive []byte) ([]byte, abi.Errno) {
	t.Helper()
	z, err := NewZipFS(archive)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	var got []byte
	errno := abi.Errno(-1)
	z.Open("/m", abi.O_RDONLY, 0, func(h FileHandle, e abi.Errno) {
		errno = e
		if e == abi.OK {
			got = h.(*httpHandle).data
		}
	})
	return got, errno
}

// TestZipFSDeclaredSizeBounds: a member whose compressed bytes cannot
// produce its declared size opens with EIO before anything of that
// size is allocated; valid members, including a deflate stream near
// the maximum ratio, still open with their exact bytes.
func TestZipFSDeclaredSizeBounds(t *testing.T) {
	two := []byte("hi")
	zeros := make([]byte, 4<<20)
	dz := deflated(t, zeros)
	for _, tc := range []struct {
		name    string
		archive []byte
		want    []byte // nil: EIO
	}{
		{"store exact", rawZip(t, zip.Store, 2, 2, two, crc32.ChecksumIEEE(two)), two},
		{"store declares 1<<62", rawZip(t, zip.Store, 1<<62, 2, two, 0), nil},
		{"store declares one byte more", rawZip(t, zip.Store, 3, 2, two, 0), nil},
		{"store compressed past archive", rawZip(t, zip.Store, 1<<40, 1<<40, two, 0), nil},
		{"deflate zeros", rawZip(t, zip.Deflate, uint64(len(zeros)), uint64(len(dz)), dz, crc32.ChecksumIEEE(zeros)), zeros},
		{"deflate declares 1<<62", rawZip(t, zip.Deflate, 1<<62, uint64(len(dz)), dz, 0), nil},
		{"deflate past max ratio", rawZip(t, zip.Deflate, uint64(len(dz)+1)*maxDeflateRatio, uint64(len(dz)), dz, 0), nil},
	} {
		got, errno := openZipMember(t, tc.archive)
		if tc.want == nil {
			if errno != abi.EIO {
				t.Errorf("%s: open = %v, want EIO", tc.name, errno)
			}
			continue
		}
		if errno != abi.OK || !bytes.Equal(got, tc.want) {
			t.Errorf("%s: open = %v with %d bytes, want OK with %d", tc.name, errno, len(got), len(tc.want))
		}
	}
}

// FuzzZipFS mounts arbitrary bytes as an archive and opens every
// member: a corrupt archive may fail to mount or a member may fail
// with an errno, but nothing may panic.
func FuzzZipFS(f *testing.F) {
	two := []byte("hi")
	f.Add(buildZip(f, map[string]string{"a/b.txt": "hello", "c": "world"}))
	f.Add(rawZip(f, zip.Store, 1<<62, 2, two, 0))
	f.Add(rawZip(f, zip.Deflate, 1<<62, 2, two, 0))
	f.Add(rawZip(f, zip.Store, 2, 2, two, crc32.ChecksumIEEE(two)))
	f.Fuzz(func(t *testing.T, archive []byte) {
		z, err := NewZipFS(archive)
		if err != nil {
			return
		}
		for p := range z.files {
			z.Open(p, abi.O_RDONLY, 0, func(FileHandle, abi.Errno) {})
		}
	})
}
