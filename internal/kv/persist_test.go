package kv

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestPersistentReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersistent(dir, NewBTreeStore())
	if err != nil {
		t.Fatal(err)
	}
	p.Put([]byte("a"), []byte("1"))
	p.Put([]byte("b"), []byte("2222222222"))
	p.Delete([]byte("a"))
	p.PatchInPlace([]byte("b"), 2, []byte("XY"))
	p.AppendValue([]byte("b"), []byte("!"))
	p.MovePrefix([]byte("b"), []byte("c"))
	// Crash: no Close, no Snapshot. Reopen from the WAL alone.
	p2, err := OpenPersistent(dir, NewBTreeStore())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if _, ok := p2.Get([]byte("a")); ok {
		t.Error("deleted key resurrected")
	}
	if v, ok := p2.Get([]byte("c")); !ok || string(v) != "22XY222222!" {
		t.Errorf("recovered c = %q, %v", v, ok)
	}
	if p2.Len() != 1 {
		t.Errorf("Len = %d", p2.Len())
	}
	p.Close()
}

func TestPersistentSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersistent(dir, NewHashStore())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil || wal.Size() != 0 {
		t.Errorf("wal size after snapshot = %v, %v", wal.Size(), err)
	}
	// Mutations after the snapshot land in the fresh WAL.
	p.Put([]byte("post"), []byte("snap"))
	p.Close()

	p2, err := OpenPersistent(dir, NewHashStore())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Len() != 101 {
		t.Errorf("recovered Len = %d, want 101", p2.Len())
	}
	if v, ok := p2.Get([]byte("post")); !ok || string(v) != "snap" {
		t.Errorf("post-snapshot key = %q, %v", v, ok)
	}
}

func TestPersistentAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersistent(dir, NewHashStore())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SnapshotEvery = 10
	for i := 0; i < 25; i++ {
		p.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	snap, err := os.Stat(filepath.Join(dir, snapFile))
	if err != nil || snap.Size() == 0 {
		t.Errorf("auto snapshot missing: %v", err)
	}
}

// TestPersistentAutoSnapshotReopen: the mutation that triggers an automatic
// snapshot is in that snapshot, so nothing is lost with the WAL it
// truncates.
func TestPersistentAutoSnapshotReopen(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersistent(dir, NewBTreeStore())
	if err != nil {
		t.Fatal(err)
	}
	p.SnapshotEvery = 10
	for i := 0; i < 15; i++ {
		p.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	p.Close()

	p2, err := OpenPersistent(dir, NewBTreeStore())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for i := 0; i < 15; i++ {
		if _, ok := p2.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Errorf("k%d lost across an auto snapshot", i)
		}
	}
}

// TestPersistentConcurrentAutoSnapshot: writers racing automatic snapshots
// lose no acknowledged mutation — every Put that returned survives a
// reopen.
func TestPersistentConcurrentAutoSnapshot(t *testing.T) {
	const writers, each = 4, 200
	dir := t.TempDir()
	p, err := OpenPersistent(dir, NewHashStore())
	if err != nil {
		t.Fatal(err)
	}
	p.SnapshotEvery = 7
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p.Put([]byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v"))
			}
		}(w)
	}
	wg.Wait()
	p.Close()

	p2, err := OpenPersistent(dir, NewHashStore())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Len() != writers*each {
		t.Errorf("recovered Len = %d, want %d", p2.Len(), writers*each)
	}
}

func TestPersistentTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersistent(dir, NewHashStore())
	if err != nil {
		t.Fatal(err)
	}
	p.Put([]byte("good"), []byte("1"))
	p.Close()
	// Simulate a crash mid-append: garbage partial record at the tail.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	p2, err := OpenPersistent(dir, NewHashStore())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if v, ok := p2.Get([]byte("good")); !ok || string(v) != "1" {
		t.Errorf("good record lost: %q, %v", v, ok)
	}
	if p2.Len() != 1 {
		t.Errorf("Len = %d", p2.Len())
	}
}

func TestPersistentCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	p, _ := OpenPersistent(dir, NewHashStore())
	p.Put([]byte("a"), []byte("1"))
	p.Put([]byte("b"), []byte("2"))
	p.Close()
	// Flip a byte inside the first record's payload: CRC must reject it and
	// replay stops there (prefix integrity, as with a real WAL).
	path := filepath.Join(dir, walFile)
	data, _ := os.ReadFile(path)
	data[10] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	p2, err := OpenPersistent(dir, NewHashStore())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Len() != 0 {
		t.Errorf("replayed %d records past a corrupt one", p2.Len())
	}
}

func TestPersistentOrderedPassThrough(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersistent(dir, NewBTreeStore())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.IsOrdered() {
		t.Fatal("btree-backed Persistent not ordered")
	}
	for i := 0; i < 20; i++ {
		p.Put([]byte(fmt.Sprintf("p/%02d", i)), []byte("v"))
	}
	n := 0
	p.AscendPrefix([]byte("p/"), func(k, v []byte) bool { n++; return true })
	if n != 20 {
		t.Errorf("prefix scan = %d", n)
	}
	var first string
	p.AscendRange([]byte("p/05"), []byte("p/10"), func(k, v []byte) bool {
		if first == "" {
			first = string(k)
		}
		return true
	})
	if first != "p/05" {
		t.Errorf("range start = %q", first)
	}
	hp, err := OpenPersistent(t.TempDir(), NewHashStore())
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	if hp.IsOrdered() {
		t.Error("hash-backed Persistent claims ordered")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []record{
		{kind: recPut, a: []byte("key"), b: []byte("value")},
		{kind: recDelete, a: []byte("k")},
		{kind: recPatch, a: []byte("k"), b: []byte("xy"), n: 42},
		{kind: recAppend, a: []byte("k"), b: nil},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	for _, want := range recs {
		var got record
		var ok bool
		got, buf, ok = decodeRecord(buf)
		if !ok {
			t.Fatal("decode failed")
		}
		if got.kind != want.kind || string(got.a) != string(want.a) ||
			string(got.b) != string(want.b) || got.n != want.n {
			t.Errorf("got %+v, want %+v", got, want)
		}
	}
	if len(buf) != 0 {
		t.Errorf("%d bytes left over", len(buf))
	}
}
