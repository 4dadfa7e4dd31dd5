open Simkit
open Nsk

type t = {
  systems : System.t array;
  wan : Time.span;
  mutable wan_up : bool;
  obs : Obs.t option;
}

let build sim ?(nodes = 2) ?(wan_latency = Time.us 100) ?obs config =
  if nodes < 1 then invalid_arg "Cluster.build: need at least one node";
  {
    (* One shared observability context across every node: a distributed
       transaction's spans land in a single collector, so its causal DAG
       crosses the interconnect intact. *)
    systems = Array.init nodes (fun _ -> System.build ?obs sim config);
    wan = wan_latency;
    wan_up = true;
    obs;
  }

let node_count t = Array.length t.systems

let system t i =
  if i < 0 || i >= Array.length t.systems then invalid_arg "Cluster.system: bad node";
  t.systems.(i)

let partition t = t.wan_up <- false

let heal t = t.wan_up <- true

let wan_is_up t = t.wan_up

let local_session t ~node ~cpu = System.session (system t node) ~cpu

let remote_session t ~from_node ~target ~cpu =
  let home = system t from_node in
  let remote = system t target in
  let client_cpu = Node.cpu (System.node home) cpu in
  Txclient.create ~cpu:client_cpu
    ~tmf:(Tmf.server (System.tmf remote))
    ~dp2s:(System.dp2_servers remote)
    ~routing:(System.routing remote)
    ~wan_latency:(if from_node = target then 0 else t.wan)
    ~link:(fun () -> t.wan_up || from_node = target)
    ?obs:t.obs ()

let total_committed t =
  Array.fold_left (fun acc s -> acc + Tmf.committed (System.tmf s)) 0 t.systems

(* Cross-node in-doubt resolution: a branch on [node] asks the gtid's
   coordinator node what the global decision was.  The question travels
   over the interconnect like any other remote call, so it pays the link
   latency — and fails (presumed abort, status 0) if the partition has
   not healed. *)
let resolver t ~node gtid =
  match gtid with
  | None -> 0
  | Some (coord_node, coord_txn) ->
      if coord_node < 0 || coord_node >= Array.length t.systems then 0
      else
        let session = remote_session t ~from_node:node ~target:coord_node ~cpu:0 in
        (match Txclient.query_outcome session coord_txn with
        | Ok status -> status
        | Error _ -> 0)

let recover t =
  let rec each i acc =
    if i >= Array.length t.systems then Ok (List.rev acc)
    else
      match Recovery.run ~outcome_of:(resolver t ~node:i) t.systems.(i) with
      | Ok report -> each (i + 1) (report :: acc)
      | Error e -> Error (Printf.sprintf "node %d: %s" i e)
  in
  each 0 []
