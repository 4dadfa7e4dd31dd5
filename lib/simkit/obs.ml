type t = { obs_metrics : Metrics.t; obs_spans : Span.t }

let create ?metrics ?spans () =
  {
    obs_metrics = (match metrics with Some m -> m | None -> Metrics.create ());
    obs_spans = (match spans with Some s -> s | None -> Span.create ());
  }

let metrics t = t.obs_metrics

let spans t = t.obs_spans

let set_clock t clock = Span.set_clock t.obs_spans clock

(* Global telemetry level, re-exported so users configure observability
   through one module. *)

type level = Level.t = Off | Counters | Spans

let set_level = Level.set

let level = Level.get

let spans_on = Level.spans_on
