package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestMsgRoundTrip(t *testing.T) {
	m := &Msg{ID: 42, IsResp: true, Op: OpCreateFile, Status: StatusExist,
		ServiceNS: 123456, Trace: 0xdeadbeef, Span: 0xfeedface, Map: 9,
		Lease: 17, Body: []byte("hello")}
	var buf bytes.Buffer
	if err := WriteMsg(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || !got.IsResp || got.Op != OpCreateFile || got.Status != StatusExist ||
		got.ServiceNS != 123456 || got.Trace != 0xdeadbeef || got.Span != 0xfeedface ||
		got.Map != 9 || got.Lease != 17 || string(got.Body) != "hello" {
		t.Errorf("round trip = %+v", got)
	}
}

func TestMsgEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &Msg{ID: 1, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Body) != 0 || got.Op != OpPing || got.IsResp {
		t.Errorf("got %+v", got)
	}
}

func TestMsgQuickRoundTrip(t *testing.T) {
	f := func(id uint64, isResp bool, op uint16, status uint16, service, trace, span, ver, lease uint64, body []byte) bool {
		m := &Msg{ID: id, IsResp: isResp, Op: Op(op), Status: Status(status),
			ServiceNS: service, Trace: trace, Span: span, Map: ver, Lease: lease, Body: body}
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			return false
		}
		got, err := ReadMsg(&buf)
		if err != nil {
			return false
		}
		return got.ID == id && got.IsResp == isResp && got.Op == Op(op) &&
			got.Status == Status(status) && got.ServiceNS == service &&
			got.Trace == trace && got.Span == span && got.Map == ver &&
			got.Lease == lease && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultipleMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteMsg(&buf, &Msg{ID: uint64(i), Op: OpPing, Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, err := ReadMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m.ID != uint64(i) || m.Body[0] != byte(i) {
			t.Errorf("message %d = %+v", i, m)
		}
	}
}

func TestReadMsgTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteMsg(&buf, &Msg{ID: 1, Op: OpPing, Body: []byte("abcdef")})
	raw := buf.Bytes()
	if _, err := ReadMsg(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Error("truncated frame read without error")
	}
	if _, err := ReadMsg(bytes.NewReader(raw[:2])); err == nil {
		t.Error("truncated length prefix read without error")
	}
}

func TestReadMsgOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMsg(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestWriteMsgOversizeRejected(t *testing.T) {
	m := &Msg{Body: make([]byte, MaxBody+1)}
	if err := WriteMsg(&bytes.Buffer{}, m); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestAppendMsgMatchesWriteMsg: AppendMsg extends whatever b holds, and
// the frame it appends is byte for byte the one WriteMsg writes and the one
// the 61-byte header layout spells out, field by field at fixed offsets.
func TestAppendMsgMatchesWriteMsg(t *testing.T) {
	layout := func(m *Msg) []byte {
		f := make([]byte, 4+headerSize, 4+headerSize+len(m.Body))
		binary.BigEndian.PutUint32(f[0:], uint32(headerSize+len(m.Body)))
		binary.BigEndian.PutUint64(f[4:], m.ID)
		if m.IsResp {
			f[12] = 1
		}
		binary.BigEndian.PutUint16(f[13:], uint16(m.Op))
		binary.BigEndian.PutUint16(f[15:], uint16(m.Status))
		binary.BigEndian.PutUint64(f[17:], m.ServiceNS)
		binary.BigEndian.PutUint64(f[25:], m.Trace)
		binary.BigEndian.PutUint64(f[33:], m.Span)
		binary.BigEndian.PutUint64(f[41:], m.Req)
		binary.BigEndian.PutUint64(f[49:], m.Map)
		binary.BigEndian.PutUint64(f[57:], m.Lease)
		return append(f, m.Body...)
	}
	const all = ^uint64(0)
	for name, m := range map[string]*Msg{
		"request":  {ID: 7, Op: OpStatFile, Trace: 3, Span: 4, Body: []byte("0123456789abcdef\x00\x00\x00\x06f00001")},
		"response": {ID: 7, IsResp: true, Op: OpStatFile, Status: StatusNotFound, ServiceNS: 1500, Map: 2, Lease: 9, Body: []byte("attr")},
		"maximal header": {ID: all, IsResp: true, Op: Op(0xffff), Status: Status(0xffff), ServiceNS: all,
			Trace: all, Span: all, Req: all, Map: all, Lease: all, Body: []byte{0xff}},
		"empty body": {ID: 1, Op: OpPing},
	} {
		want := layout(m)
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: WriteMsg = %x, %v; want %x", name, buf.Bytes(), err, want)
		}
		prefix := []byte("earlier frames")
		got, err := AppendMsg(append([]byte(nil), prefix...), m)
		if err != nil || !bytes.Equal(got, append(prefix, want...)) {
			t.Errorf("%s: AppendMsg after %q = %x, %v; want the prefix then %x", name, prefix, got, err, want)
		}
	}
	b := []byte("kept")
	if got, err := AppendMsg(b, &Msg{Body: make([]byte, MaxBody+1)}); !errors.Is(err, ErrFrameTooLarge) || string(got) != "kept" {
		t.Errorf("oversize AppendMsg = %q, %v; want the input back and ErrFrameTooLarge", got, err)
	}
}

func TestStatusErr(t *testing.T) {
	if StatusOK.Err() != nil {
		t.Error("StatusOK.Err() != nil")
	}
	err := StatusNotFound.Err()
	if err == nil || StatusOf(err) != StatusNotFound {
		t.Errorf("StatusOf(%v) = %v", err, StatusOf(err))
	}
	if StatusOf(nil) != StatusOK {
		t.Error("StatusOf(nil) != StatusOK")
	}
	if StatusOf(errors.New("misc")) != StatusIO {
		t.Error("StatusOf(foreign) != StatusIO")
	}
}

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		StatusOK:       "OK",
		StatusNotFound: "ENOENT",
		StatusExist:    "EEXIST",
		StatusNotDir:   "ENOTDIR",
		StatusIsDir:    "EISDIR",
		StatusNotEmpty: "ENOTEMPTY",
		StatusPerm:     "EPERM",
		StatusInval:    "EINVAL",
		StatusStale:    "ESTALE",
		StatusIO:       "EIO",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Status(999).String() == "" {
		t.Error("unknown status has empty String()")
	}
}

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		OpMkdir:      "Mkdir",
		OpLookupDir:  "LookupDir",
		OpRenameDir:  "RenameDir",
		OpCreateFile: "CreateFile",
		OpStatFile:   "StatFile",
		OpAccessFile: "AccessFile",
		OpRenameFile: "RenameFile",
		OpPutBlock:   "PutBlock",
		OpPing:       "Ping",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", uint16(op), op.String(), want)
		}
	}
	if Op(0xffff).String() != "op(0xffff)" {
		t.Errorf("unknown op = %q", Op(0xffff).String())
	}
}

// TestFMSOpNumbersStable pins the FMS op numbers past the retired 0x020e
// slot: renumbering them would break every peer built before.
func TestFMSOpNumbersStable(t *testing.T) {
	for op, want := range map[Op]uint16{
		OpDirHasFiles: 0x020d, OpMigrateScan: 0x020f, OpMigrateInstall: 0x0210, OpMigrateDelete: 0x0211,
	} {
		if uint16(op) != want {
			t.Errorf("%v = 0x%04x, want 0x%04x", op, uint16(op), want)
		}
	}
}

// allocated returns the bytes fn allocates: the least over a few runs,
// because TotalAlloc is process-wide and the runtime now and then allocates
// on its own (5.5 KB at a time under -race).
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecodersBoundCountsByInput: an element count read off the wire sizes
// no allocation the rest of the body cannot back. Each body below declares
// 2^22 elements and holds none; sized by the count alone, one small frame
// cost megabytes — and at 2^32-1, the process.
func TestDecodersBoundCountsByInput(t *testing.T) {
	const huge = 1 << 22
	cases := map[string]struct {
		body   []byte
		decode func([]byte) error
	}{
		"DecodeRecallResp": {NewEnc().U64(9).Bool(false).U32(huge).Bytes(),
			func(b []byte) error { _, _, _, err := DecodeRecallResp(b); return err }},
		"DecodeRenamePrepare": {NewEnc().U64(1).Str("/a").Str("/b").U32(0).U32(0).U32(huge).Bytes(),
			func(b []byte) error { _, err := DecodeRenamePrepare(b); return err }},
		"DecodeLogFetchResp": {NewEnc().U64(9).U64(0).Bool(false).U32(huge).Bytes(),
			func(b []byte) error { _, err := DecodeLogFetchResp(b); return err }},
	}
	for name, c := range cases {
		var err error
		got := allocated(func() { err = c.decode(c.body) })
		if err == nil {
			t.Errorf("%s: a count backed by nothing decoded without error", name)
		}
		if limit := uint64(16*len(c.body) + 1024); got > limit {
			t.Errorf("%s: %d bytes allocated decoding a %d-byte body, want <= %d", name, got, len(c.body), limit)
		}
	}
}
