package layout

import (
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"locofs/internal/uuid"
)

// The reference model: the straightforward map-based replay of a dirent
// log (a name-keyed map of live entries plus a first-insertion order),
// against which FuzzDirentLog checks the product's one-sort replay.

func refWalk(list []byte, fn func(name, u []byte, tomb bool)) error {
	for len(list) > 0 {
		hdr, n := binary.Uvarint(list)
		if n <= 0 {
			return ErrCorruptDirentList
		}
		list = list[n:]
		nameLen, tomb := hdr>>1, hdr&1 == 1
		need := nameLen
		if !tomb {
			need += uuid.Size
		}
		if uint64(len(list)) < need {
			return ErrCorruptDirentList
		}
		name := list[:nameLen]
		list = list[nameLen:]
		var u []byte
		if !tomb {
			u, list = list[:uuid.Size], list[uuid.Size:]
		}
		fn(name, u, tomb)
	}
	return nil
}

func refDecode(list []byte) ([]Dirent, error) {
	var order []string
	ordered := map[string]bool{}
	live := map[string]uuid.UUID{}
	err := refWalk(list, func(name, u []byte, tomb bool) {
		key := string(name)
		if tomb {
			delete(live, key)
			return
		}
		if !ordered[key] {
			ordered[key] = true
			order = append(order, key)
		}
		live[key] = uuid.MustFromBytes(u)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Dirent, 0, len(live))
	for _, name := range order {
		if u, ok := live[name]; ok {
			out = append(out, Dirent{Name: name, UUID: u})
		}
	}
	return out, nil
}

func refFind(list []byte, name string) (Dirent, bool, error) {
	ents, err := refDecode(list)
	for _, e := range ents {
		if e.Name == name {
			return e, true, nil
		}
	}
	return Dirent{}, false, err
}

func refCompact(list []byte) ([]byte, int, error) {
	ents, err := refDecode(list)
	if err != nil {
		return nil, 0, err
	}
	out := make([]byte, 0, len(list))
	for _, e := range ents {
		out = AppendDirent(out, e)
	}
	return out, len(ents), nil
}

func refPageAt(list []byte, cursor string, skip, limit int) ([]Dirent, int, error) {
	all, err := refDecode(list)
	if err != nil {
		return nil, 0, err
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	all = all[sort.Search(len(all), func(i int) bool { return cursor == "" || all[i].Name > cursor }):]
	if limit > 0 && skip > 0 {
		if skip*limit >= len(all) {
			return nil, 0, nil
		}
		all = all[skip*limit:]
	}
	if limit > 0 && len(all) > limit {
		return all[:limit], len(all) - limit, nil
	}
	return all, 0, nil
}

// direntNames is the fuzz alphabet: the empty name, names that prefix one
// another, a NUL byte, and a name long enough for a two-byte header.
var direntNames = []string{"", "a", "b", "aa", "ab", "b\x00", strings.Repeat("x", 70)}

// direntLog builds a log from ops, two bits of op each: 0 inserts a name,
// 1 tombstones it, 2 re-inserts it with no tombstone in between, and 3
// appends the next input byte raw (garbage). The other bits pick the name.
func direntLog(ops []byte) []byte {
	var list []byte
	for i := 0; i < len(ops); i++ {
		b := ops[i]
		name := direntNames[int(b>>2)%len(direntNames)]
		switch b & 3 {
		case 0:
			list = AppendDirent(list, Dirent{Name: name, UUID: uuid.New(1, uint64(i))})
		case 1:
			list = AppendDirentTombstone(list, name)
		case 2:
			list = AppendDirent(list, Dirent{Name: name, UUID: uuid.New(1, uint64(i))})
			list = AppendDirent(list, Dirent{Name: name, UUID: uuid.New(2, uint64(i))})
		case 3:
			if i+1 < len(ops) {
				i++
				list = append(list, ops[i])
			}
		}
	}
	return list
}

func FuzzDirentLog(f *testing.F) {
	f.Add([]byte{0, 4, 8, 5, 2, 24, 12, 1}, uint8(0), uint8(0), int8(2))
	f.Add([]byte{0, 4, 8, 12, 16, 20, 24, 9, 17, 10}, uint8(2), uint8(1), int8(2))
	f.Add([]byte{0, 3, 0x80, 4}, uint8(0), uint8(0), int8(-1))
	f.Add([]byte{24, 3, 0x7f}, uint8(7), uint8(3), int8(1))
	f.Fuzz(func(t *testing.T, ops []byte, cursorSel, skip uint8, limit int8) {
		list := direntLog(ops)
		want, wantErr := refDecode(list)

		got, err := DecodeDirents(list)
		if wantErr != nil {
			_, _, compactErr := CompactDirents(list)
			_, countErr := CountDirents(list)
			_, _, findErr := FindDirent(list, "a")
			_, _, pageErr := DirentPageAt(list, "", 0, 0)
			for _, err := range []error{err, compactErr, countErr, findErr, pageErr} {
				if !errors.Is(err, ErrCorruptDirentList) {
					t.Fatalf("corrupt list %x: err %v, want ErrCorruptDirentList", list, err)
				}
			}
			if _, _, due := CompactDirentsIfDue(list); due {
				t.Fatalf("corrupt list %x due for compaction", list)
			}
			return
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeDirents(%x) = %v, %v; want %v", list, got, err, want)
		}
		if n, err := CountDirents(list); err != nil || n != len(want) {
			t.Fatalf("CountDirents = %d, %v; want %d", n, err, len(want))
		}
		for _, name := range direntNames {
			e, ok, err := FindDirent(list, name)
			we, wok, _ := refFind(list, name)
			if err != nil || ok != wok || e != we {
				t.Fatalf("FindDirent(%q) = %v %v %v; want %v %v", name, e, ok, err, we, wok)
			}
		}
		out, live, err := CompactDirents(list)
		wout, wlive, _ := refCompact(list)
		if err != nil || live != wlive || !reflect.DeepEqual(out, wout) {
			t.Fatalf("CompactDirents = %x %d %v; want %x %d", out, live, err, wout, wlive)
		}
		recs, tombs := 0, 0
		refWalk(list, func(_, _ []byte, tomb bool) {
			recs++
			if tomb {
				tombs++
			}
		})
		if out, live, due := CompactDirentsIfDue(list); due != (4*tombs >= recs) || due && (live != wlive || !reflect.DeepEqual(out, wout)) {
			t.Fatalf("CompactDirentsIfDue = %x %d %v; want %x %d, due with %d of %d records tombstones", out, live, due, wout, wlive, tombs, recs)
		}

		cursor := ""
		if cursorSel > 0 {
			cursor = direntNames[int(cursorSel-1)%len(direntNames)]
		}
		ents, rem, err := DirentPageAt(list, cursor, int(skip%4), int(limit%6))
		wents, wrem, _ := refPageAt(list, cursor, int(skip%4), int(limit%6))
		if err != nil || rem != wrem || !reflect.DeepEqual(ents, wents) {
			t.Fatalf("DirentPageAt(%q, %d, %d) = %v %d %v; want %v %d", cursor, skip%4, limit%6, ents, rem, err, wents, wrem)
		}
	})
}
