open Simkit

(** Multi-node clusters (paper §1.3: servers that scale out attach to "a
    high-bandwidth, low-latency, message-passing interconnection
    network").

    A cluster is N complete, shared-nothing nodes — each with its own
    CPUs, ServerNet fabric, volumes, and (in PM mode) NPMU pair — joined
    by an inter-node link.  Data is partitioned by node; an application
    reaches a remote node's data tier through a session that pays the
    link latency both ways on every message. *)

type t

val build : Sim.t -> ?nodes:int -> ?wan_latency:Time.span -> ?obs:Obs.t -> System.config -> t
(** [nodes] defaults to 2; [wan_latency] (one-way, default 100 µs) is the
    inter-node interconnect.  With [obs], every node and every
    cross-node session reports into the same observability context, so a
    distributed transaction's span DAG is collected whole — both sides
    of a 2PC hop carry the coordinator's trace id.  Same process-context
    caveat as {!System.build} in PM mode. *)

val node_count : t -> int

val system : t -> int -> System.t
(** Raises [Invalid_argument] for an out-of-range node. *)

val partition : t -> unit
(** Sever the inter-node link.  Cross-node calls in flight lose their
    request or reply leg and time out; local traffic is unaffected. *)

val heal : t -> unit

val wan_is_up : t -> bool

val local_session : t -> node:int -> cpu:int -> Txclient.t
(** A session on [node] addressing its own data tier. *)

val remote_session : t -> from_node:int -> target:int -> cpu:int -> Txclient.t
(** A session hosted on [from_node]'s CPU [cpu] addressing [target]'s
    data tier across the interconnect.  Cross-node sessions observe
    {!partition}: while the link is down their calls fail with
    timeouts.  Inherits the cluster's observability context, so remote
    branches trace like local ones. *)

val total_committed : t -> int
(** Committed transactions across all nodes' monitors. *)

val recover : t -> (Recovery.report list, string) result
(** Run {!Recovery.run} on every node in order, resolving each node's
    in-doubt branches by querying the gtid's coordinator node across the
    interconnect ([Tmf.Query_outcome]).  Requires the link healed —
    unreachable coordinators resolve to presumed abort.  Process context
    only. *)
