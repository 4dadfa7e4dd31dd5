open Simkit
open Nsk

(* Pause between attempts. *)
let backoff = Time.ms 200

let call_retry server ~from ?req_bytes ?(attempts = 6) ?(timeout = Time.sec 1) ?span req =
  let rec go n =
    match Msgsys.call server ~from ?req_bytes ~timeout ?span req with
    | Ok resp -> Ok resp
    | Error e -> if n <= 1 then Error e else (Sim.sleep backoff; go (n - 1))
  in
  go attempts
