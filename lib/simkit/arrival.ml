type phase = { rate : float; duration : Time.span }

type schedule = phase list

let constant ~rate ~duration () = [ { rate; duration } ]

let flash_crowd ~base ~spike ~cool ~warmup ~spike_for ~cooldown () =
  [
    { rate = base; duration = warmup };
    { rate = spike; duration = spike_for };
    { rate = cool; duration = cooldown };
  ]

(* Gaps are clamped to >= 1 ns so the dispatch loop always advances
   virtual time, whatever the rate. *)
let span_of_ns ns = Time.ns (max 1 (int_of_float ns))

let run ~rng schedule ~f =
  let count = ref 0 in
  List.iter
    (fun p ->
      if p.duration > 0 then
        if p.rate <= 0. then Sim.sleep p.duration
        else begin
          let sim = Sim.current () in
          let phase_end = Sim.now sim + p.duration in
          let interval_ns = 1e9 /. p.rate in
          let rec loop () =
            if Sim.now sim < phase_end then begin
              f !count;
              incr count;
              Sim.sleep (span_of_ns (Rng.exponential rng ~mean:interval_ns));
              loop ()
            end
          in
          loop ()
        end)
    schedule;
  !count
