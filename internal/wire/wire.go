// Package wire defines the message format spoken between LocoFS clients and
// metadata/data servers: a binary header (request id, op code, status) plus
// an opaque body, with a length-prefixed framing for byte-stream transports.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op identifies a remote procedure.
type Op uint16

// Operations served by the directory metadata server (DMS).
const (
	OpMkdir Op = 0x0100 + iota
	OpRmdir
	OpStatDir
	OpReaddirSubdirs
	OpLookupDir // resolve path -> d-inode with full ancestor ACL check
	OpRenameDir // directory rename (prefix move)
	OpChmodDir
	OpChownDir
	// OpLeaseRecall fetches the DMS lease-recall log entries published after
	// a client-supplied sequence number, so a client whose cached lease seq
	// fell behind (detected via the response header's Lease field) can drop
	// exactly the directories that changed instead of its whole cache.
	OpLeaseRecall
)

// Operations served by the file metadata servers (FMS).
const (
	OpCreateFile Op = 0x0200 + iota
	OpRemoveFile
	OpStatFile
	OpOpenFile
	OpCloseFile
	OpChmodFile
	OpChownFile
	OpAccessFile
	OpUtimensFile
	OpTruncateFile
	OpUpdateSize // content-part size+mtime update after a data write
	OpReaddirFiles
	OpRenameFile
	OpDirHasFiles // rmdir support: does this FMS hold files of dir uuid?
	// 0x020e is retired (a directory-wide file removal nothing called) and
	// stays reserved, so the ops below keep their numbers on the wire.
	_
	// Migration operations for online membership changes: a scan that
	// exports the keys a new ring would place elsewhere, an install that
	// imports one file's metadata at its new owner, and a conditional
	// delete that retires the source copy once the install landed.
	OpMigrateScan
	OpMigrateInstall
	OpMigrateDelete
)

// Operations served by the object store servers (OSS).
const (
	OpPutBlock Op = 0x0300 + iota
	OpGetBlock
	OpDeleteBlocks
)

// Generic/administrative operations.
const (
	OpPing Op = 0x0001
	// OpGetMap returns the server's installed ClusterMap, on every role. A
	// server nothing was installed on answers the empty version-0 map (a lone
	// DMS its version-0 solo map), which replaces nobody's.
	OpGetMap Op = 0x0002
	// OpSetMap installs a ClusterMap, with the receiver's coordinates in it,
	// if its version is strictly newer than the installed one (StatusStale
	// otherwise).
	OpSetMap Op = 0x0003
)

// Operations of the sharded DMS replication/partition plane (0x0400 range).
// These are spoken between DMS replicas (leader -> follower) and between
// partition leaders (two-partition rename commit), never by clients.
const (
	// OpLogAppend replicates one op-log entry from a partition leader to a
	// follower, which appends, applies, and acks. The body is an encoded
	// LogAppend (the leader's retained-log floor plus one LogEntry); the OK
	// response body carries the follower's applied watermark (EncodeLogAck),
	// which the leader folds into the group-wide truncation minimum. The
	// follower rejects index gaps with StatusInval (and starts catching up)
	// and acks older indexes with StatusOK (already applied — ack replay).
	OpLogAppend Op = 0x0400 + iota
	// OpSeedUpdate pushes an ancestor-inode seed copy (or its removal) from
	// the partition owning a path to a partition whose range lies below it.
	OpSeedUpdate
	// OpRenamePrepare asks the destination partition of a cross-partition
	// directory rename to validate, persist the exported subtree records in
	// its replicated log, and freeze the destination range.
	OpRenamePrepare
	// OpRenameCommit makes a prepared cross-partition rename visible at the
	// destination. Idempotent per transaction id: a recovered coordinator
	// may resend it.
	OpRenameCommit
	// OpRenameAbort discards a prepared cross-partition rename at the
	// destination. Unknown transaction ids ack OK (presumed abort).
	OpRenameAbort
	// The OpRenameSrc* ops never travel as standalone RPCs: they are the
	// coordinator-side (source partition) op-log markers of a cross-
	// partition rename, replicated inside OpLogAppend entries so that every
	// source replica can reconstruct the transaction's state — and a
	// promoted follower can finish or abort it — from its log alone.
	OpRenameSrcPrepare
	OpRenameSrcCommit
	OpRenameSrcAbort
	OpRenameSrcComplete
	// OpLogFetch serves a range of op-log entries from a partition leader
	// to a replica replaying missed appends (catch-up). The request names
	// the fetching replica and its next index; the response returns entries
	// from that index (bounded by the request's batch limit), the leader's
	// log tip and retained floor, and — when the replica has reached the
	// tip — the rejoined flag, meaning the leader has re-admitted it to the
	// live fan-out set. A request below the leader's retained floor fails
	// with StatusExpired: log replay cannot rebuild that replica.
	OpLogFetch
)

// String returns the operation's symbolic name, used as the op label on
// telemetry metrics and in slow-request trace logs.
func (o Op) String() string {
	switch o {
	case OpMkdir:
		return "Mkdir"
	case OpRmdir:
		return "Rmdir"
	case OpStatDir:
		return "StatDir"
	case OpReaddirSubdirs:
		return "ReaddirSubdirs"
	case OpLookupDir:
		return "LookupDir"
	case OpRenameDir:
		return "RenameDir"
	case OpChmodDir:
		return "ChmodDir"
	case OpChownDir:
		return "ChownDir"
	case OpLeaseRecall:
		return "LeaseRecall"
	case OpCreateFile:
		return "CreateFile"
	case OpRemoveFile:
		return "RemoveFile"
	case OpStatFile:
		return "StatFile"
	case OpOpenFile:
		return "OpenFile"
	case OpCloseFile:
		return "CloseFile"
	case OpChmodFile:
		return "ChmodFile"
	case OpChownFile:
		return "ChownFile"
	case OpAccessFile:
		return "AccessFile"
	case OpUtimensFile:
		return "UtimensFile"
	case OpTruncateFile:
		return "TruncateFile"
	case OpUpdateSize:
		return "UpdateSize"
	case OpReaddirFiles:
		return "ReaddirFiles"
	case OpRenameFile:
		return "RenameFile"
	case OpDirHasFiles:
		return "DirHasFiles"
	case OpMigrateScan:
		return "MigrateScan"
	case OpMigrateInstall:
		return "MigrateInstall"
	case OpMigrateDelete:
		return "MigrateDelete"
	case OpPutBlock:
		return "PutBlock"
	case OpGetBlock:
		return "GetBlock"
	case OpDeleteBlocks:
		return "DeleteBlocks"
	case OpPing:
		return "Ping"
	case OpGetMap:
		return "GetMap"
	case OpSetMap:
		return "SetMap"
	case OpLogAppend:
		return "LogAppend"
	case OpSeedUpdate:
		return "SeedUpdate"
	case OpRenamePrepare:
		return "RenamePrepare"
	case OpRenameCommit:
		return "RenameCommit"
	case OpRenameAbort:
		return "RenameAbort"
	case OpRenameSrcPrepare:
		return "RenameSrcPrepare"
	case OpRenameSrcCommit:
		return "RenameSrcCommit"
	case OpRenameSrcAbort:
		return "RenameSrcAbort"
	case OpRenameSrcComplete:
		return "RenameSrcComplete"
	case OpLogFetch:
		return "LogFetch"
	}
	return fmt.Sprintf("op(0x%04x)", uint16(o))
}

// Idempotent reports whether re-executing the operation with an identical
// body is safe — the retry matrix the client's fault-tolerance layer keys
// off (see DESIGN.md §11). Two classes qualify:
//
//   - pure reads: stat, lookup, readdir pages, access checks, open, the
//     rmdir emptiness probe, block reads, ping;
//   - absolute-state mutations, where a duplicate execution converges to
//     the same state and status: chmod/chown (set exact bits/owner),
//     utimens (set exact times), size updates, block put (same bytes) and
//     block delete (already-gone is fine).
//
// The migration and cluster-map ops are all retry-safe too: scan and
// get-map are reads, install overwrites with absolute state, delete is
// conditional on the stored bytes, and set-map installs an absolute
// version-guarded state.
//
// The partition-plane ops are designed idempotent: a log
// append at an already-applied index replays its ack, a seed update
// installs absolute bytes, and the two-partition rename messages are
// deduplicated by transaction id at the destination (a re-prepare,
// re-commit, or re-abort of a known transaction acks without re-executing).
//
// Everything else — create, remove, mkdir, rmdir, renames and truncate —
// reports false: a replay observes the first execution's effects (EEXIST,
// ENOENT), so retries must instead be deduplicated server-side via Msg.Req,
// by the service that owns the state.
func (o Op) Idempotent() bool {
	switch o {
	case OpPing, OpStatDir, OpStatFile, OpLookupDir, OpReaddirSubdirs,
		OpLeaseRecall,
		OpReaddirFiles, OpAccessFile, OpOpenFile, OpDirHasFiles, OpGetBlock,
		OpChmodFile, OpChownFile, OpChmodDir, OpChownDir, OpUtimensFile,
		OpUpdateSize, OpPutBlock, OpDeleteBlocks,
		OpMigrateScan, OpMigrateInstall, OpMigrateDelete,
		OpGetMap, OpSetMap, OpLogAppend, OpSeedUpdate, OpLogFetch,
		OpRenamePrepare, OpRenameCommit, OpRenameAbort:
		return true
	}
	return false
}

// Status is the result code of a request.
type Status uint16

// Status codes. StatusOK must be zero.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusExist
	StatusNotDir
	StatusIsDir
	StatusNotEmpty
	StatusPerm
	StatusInval
	StatusStale // the sender's cluster map (or the map it pushed) is out of date
	StatusIO
	// StatusUnavailable reports that the server (or the path to it) is
	// known-bad right now: the client's circuit breaker is open, or the
	// server sheds load. Unlike StatusIO it is explicitly retryable after a
	// backoff.
	StatusUnavailable
	// StatusDeadline reports that a call's per-operation deadline expired
	// before a response arrived. The request may or may not have executed;
	// a retry of a mutation under the same Msg.Req is answered from the
	// first execution's record, if there was one.
	StatusDeadline
	// StatusWrongPartition reports that the addressed DMS node does not own
	// the request's path under its installed cluster map — the client
	// routed with a stale map. Like StatusStale it signals routing
	// staleness, not failure: the client refreshes its map and
	// retries against the correct owner. StatusError.Is treats it as
	// matching StatusStale so callers can test both with one sentinel.
	StatusWrongPartition
	// StatusExpired reports that the request's dedup horizon has passed:
	// the server pruned the replay record the request id would have been
	// checked against (log truncation below the group watermark), so it can
	// no longer tell a fresh request from a retry of one it already
	// executed. Refusing is the safe side of at-most-once — the request is
	// NOT executed. It also rejects a catch-up fetch below a leader's
	// retained-log floor (the range needed for replay has been truncated).
	StatusExpired
)

// String returns a short human-readable form of the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "ENOENT"
	case StatusExist:
		return "EEXIST"
	case StatusNotDir:
		return "ENOTDIR"
	case StatusIsDir:
		return "EISDIR"
	case StatusNotEmpty:
		return "ENOTEMPTY"
	case StatusPerm:
		return "EPERM"
	case StatusInval:
		return "EINVAL"
	case StatusStale:
		return "ESTALE"
	case StatusIO:
		return "EIO"
	case StatusUnavailable:
		return "EUNAVAIL"
	case StatusDeadline:
		return "ETIMEDOUT"
	case StatusWrongPartition:
		return "EWRONGPART"
	case StatusExpired:
		return "EEXPIRED"
	}
	return fmt.Sprintf("status(%d)", uint16(s))
}

// Err converts a non-OK status into an error (nil for StatusOK).
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	return &StatusError{Status: s}
}

// StatusError is the error form of a non-OK Status.
type StatusError struct{ Status Status }

// Error implements error.
func (e *StatusError) Error() string { return "locofs: " + e.Status.String() }

// Is makes every StatusError of one status match every other via errors.Is,
// so the public package can export sentinel values (locofs.ErrNotFound etc.)
// that match errors produced anywhere in the stack. A StatusDeadline error
// additionally matches context.DeadlineExceeded, the standard-library
// convention for expired deadlines, and a StatusWrongPartition error
// matches a StatusStale target — both report routing staleness, so the
// public locofs.ErrStale sentinel covers them together.
func (e *StatusError) Is(target error) bool {
	if se, ok := target.(*StatusError); ok {
		if se.Status == e.Status {
			return true
		}
		return e.Status == StatusWrongPartition && se.Status == StatusStale
	}
	if e.Status == StatusDeadline && target == context.DeadlineExceeded {
		return true
	}
	return false
}

// StatusOf extracts the Status from an error produced by Status.Err,
// returning StatusIO for foreign errors and StatusOK for nil.
func StatusOf(err error) Status {
	if err == nil {
		return StatusOK
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status
	}
	return StatusIO
}

// SubReq is one request of a multi-request send: the client pipelines a
// send's requests on one connection and flushes them in one write. Req is
// the request's dedup id (see Msg.Req), 0 until the sender mints one for a
// non-idempotent op.
type SubReq struct {
	Op   Op
	Body []byte
	Req  uint64
}

// SubResp is one request's outcome in a multi-request send. Statuses are
// per request: one failing request does not disturb the others.
type SubResp struct {
	Status Status
	Body   []byte
}

// Msg is one framed message.
type Msg struct {
	ID     uint64 // request id, echoed by the response
	IsResp bool
	Op     Op
	Status Status // meaningful on responses
	// ServiceNS reports, on responses, the server-side processing time of
	// the request in nanoseconds: measured handler time plus any modeled
	// software cost. Clients use it for virtual-time latency accounting.
	ServiceNS uint64
	// Trace is a client-generated request identifier carried end to end:
	// every RPC a single logical file-system operation issues (e.g. the
	// three calls of a file rename) shares one trace ID, and servers echo
	// it, so slow-request logs on the DMS, an FMS, and the client can be
	// correlated. Zero means untraced.
	Trace uint64
	// Span is the sender's span ID — the parent under which the receiver
	// opens its own child span, linking client-side and server-side spans
	// of one trace into a single tree (see internal/trace). Servers echo
	// it on responses. Zero means no parent span.
	Span uint64
	// Req is a client-unique request identifier, stamped only by the client
	// and only on non-idempotent requests (see Op.Idempotent). It is stable
	// across retry attempts of one logical call — unlike ID, which is
	// per-connection — so the service that owns the state recognizes a
	// retried duplicate and answers it from the record of its first
	// execution instead of executing twice (at-most-once): the FMS from its
	// request window, a DMS partition from its replicated op log. The rpc
	// layer only carries it. A refusal that executed nothing leaves no
	// record, so its retry executes. Zero means no dedup.
	Req uint64
	// Map is the version of the ClusterMap the responding server holds.
	// Servers stamp it on every response so clients piggyback staleness
	// detection on ordinary traffic: a version newer than the client's own
	// map means the FMS set changed or a DMS partition failed over, and
	// triggers an asynchronous OpGetMap refresh. Zero means "nothing
	// installed" (a static topology, a solo DMS) and is ignored.
	Map uint64
	// Lease is the DMS's lease-recall sequence number, stamped on every DMS
	// response the same way Map piggybacks routing staleness: a value
	// newer than what the client has applied means some cached directory
	// lease was recalled, and the client must treat unverified cache entries
	// as stale until it catches up (see internal/dms lease table). Zero
	// means "nothing ever recalled" and is ignored. It is a per-partition
	// sequence, not a property of the map, so it keeps its own field.
	Lease uint64
	Body  []byte
}

// header: id(8) flags(1) op(2) status(2) service(8) trace(8) span(8)
// req(8) map(8) lease(8)
const headerSize = 61

// MaxBody bounds a single message body (64 MiB), protecting servers from
// malformed frames.
const MaxBody = 64 << 20

// ErrFrameTooLarge reports a frame exceeding MaxBody.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// AppendMsg appends m's length-prefixed frame to b and returns the extended
// slice. It is the only frame encoder. A body over MaxBody is refused with
// ErrFrameTooLarge and b comes back unchanged.
func AppendMsg(b []byte, m *Msg) ([]byte, error) {
	if len(m.Body) > MaxBody {
		return b, ErrFrameTooLarge
	}
	b = binary.BigEndian.AppendUint32(b, uint32(headerSize+len(m.Body)))
	b = binary.BigEndian.AppendUint64(b, m.ID)
	var flags byte
	if m.IsResp {
		flags = 1
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(m.Op))
	b = binary.BigEndian.AppendUint16(b, uint16(m.Status))
	b = binary.BigEndian.AppendUint64(b, m.ServiceNS)
	b = binary.BigEndian.AppendUint64(b, m.Trace)
	b = binary.BigEndian.AppendUint64(b, m.Span)
	b = binary.BigEndian.AppendUint64(b, m.Req)
	b = binary.BigEndian.AppendUint64(b, m.Map)
	b = binary.BigEndian.AppendUint64(b, m.Lease)
	return append(b, m.Body...), nil
}

// WriteMsg writes m's frame to w in one Write.
func WriteMsg(w io.Writer, m *Msg) error {
	b, err := AppendMsg(make([]byte, 0, m.WireSize()), m)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadMsg reads one length-prefixed message from r.
func ReadMsg(r io.Reader) (*Msg, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < headerSize || n > headerSize+MaxBody {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	m := &Msg{
		ID:        binary.BigEndian.Uint64(payload[0:]),
		IsResp:    payload[8] == 1,
		Op:        Op(binary.BigEndian.Uint16(payload[9:])),
		Status:    Status(binary.BigEndian.Uint16(payload[11:])),
		ServiceNS: binary.BigEndian.Uint64(payload[13:]),
		Trace:     binary.BigEndian.Uint64(payload[21:]),
		Span:      binary.BigEndian.Uint64(payload[29:]),
		Req:       binary.BigEndian.Uint64(payload[37:]),
		Map:       binary.BigEndian.Uint64(payload[45:]),
		Lease:     binary.BigEndian.Uint64(payload[53:]),
		Body:      payload[headerSize:],
	}
	return m, nil
}

// WireSize returns the on-the-wire size of the message in bytes, used by the
// simulated network's bandwidth model.
func (m *Msg) WireSize() int { return 4 + headerSize + len(m.Body) }
