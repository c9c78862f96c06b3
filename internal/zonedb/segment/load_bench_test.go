package segment

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkOpenLoadLatest is the cold start the detect-cold workload
// times — list the store's epochs, read the newest with ReadFile — on
// the benchmark's own world (scale 8, seed 1: 43,480 domains, 23,808
// nameservers). Read allocs/op with -benchmem: the load is a few slabs
// and two name indexes, not an allocation per fact, and Open adds only
// the directory listing to BenchmarkReadFile.
func BenchmarkOpenLoadLatest(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	info, err := st.Seal(simView(b, 8, 1), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := st.LoadLatest(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFile is what riskybiz -data, riskywatchd -archive and
// dzdbd -load pay to load saved data: ReadFile of the file
// riskybiz -save-data writes for the same world as
// BenchmarkOpenLoadLatest.
func BenchmarkReadFile(b *testing.B) {
	path := filepath.Join(b.TempDir(), "world.dzdb")
	if err := WriteFile(path, simView(b, 8, 1)); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
