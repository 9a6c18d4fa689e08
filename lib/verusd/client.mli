(** Client — the calling side of [verus-rpc/1].

    A thin, blocking client over one Unix-domain socket connection:
    write a request frame, then read event frames until the terminal
    one arrives.  Used by [verus_cli client], the daemon bench section
    and the test suite; anything speaking the
    protocol from OCaml should go through this module rather than
    hand-rolling frames (the negative-path tests use {!send_raw} to do
    exactly that on purpose).

    One {!call} at a time per connection: requests on a connection are
    answered in order, so interleaving calls from multiple threads on
    one [t] would garble who owns which reply.  Open one connection
    per concurrent client instead — that is also what exercises the
    daemon's cross-client scheduling. *)

type t

val connect : socket_path:string -> (t, string) result
(** Connect to a daemon's socket.  The error string is human-readable
    (what [verus_cli client] prints before exiting with code 6). *)

val close : t -> unit
(** Idempotent. *)

val call :
  t -> ?on_event:(Rpc.event -> unit) -> Rpc.request -> (Rpc.event, string) result
(** Send [request] and read frames until a terminal event for its id
    arrives: [E_done], [E_error], [E_pong] or [E_status], which is
    returned.  Streamed [E_vc]/[E_fn] events are fed to [on_event] in
    arrival order (completion order of the obligations).  Events whose
    id does not match are discarded (stale stream of an aborted
    predecessor).  [Error] covers transport failures: unreadable
    frames, invalid event frames, or the daemon closing the stream
    before a terminal event. *)

val send_raw : t -> string -> unit
(** Write raw bytes, bypassing framing and validation — for the
    protocol-negative tests (truncated frames, garbage payloads).
    Never use this to speak the actual protocol. *)

val read_event : t -> (int * Rpc.event, string) result
(** Read and decode a single event frame — the low-level half of
    {!call}, exposed for the negative tests that need to observe the
    daemon's error reply to a raw byte sequence. *)
