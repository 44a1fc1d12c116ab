package wire

import (
	"bytes"
	"errors"
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
