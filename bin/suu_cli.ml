(* suu: command-line front end.

   Subcommands:
     gen       generate a workload instance and write it to a file
     info      classify an instance and print its lower bounds
     solve     build a schedule for an instance and estimate its makespan
     exact     optimal expected makespan via Malewicz's DP (small instances)
     simulate  trace one execution of a policy step by step
     serve     long-lived batch scheduling service over stdin/stdout *)

open Cmdliner

let instance_arg =
  let doc = "Instance file (format written by 'suu gen')." in
  Arg.(required & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let trials_arg =
  let doc = "Monte-Carlo trials." in
  Arg.(value & opt int 200 & info [ "trials" ] ~docv:"K" ~doc)

let workloads =
  [
    "grid-batch";
    "grid-workflow";
    "grid-divide";
    "grid-aggregate";
    "project";
    "adversarial-spread";
    "figure1";
  ]

let gen_workload name rng ~n ~m =
  let module W = Suu_workloads.Workload in
  match name with
  | "grid-batch" -> W.grid_batch rng ~n ~m
  | "grid-workflow" -> W.grid_workflow rng ~n ~m ~stages:4
  | "grid-divide" -> W.grid_divide rng ~n ~m
  | "grid-aggregate" -> W.grid_aggregate rng ~n ~m
  | "project" -> W.project rng ~n ~m
  | "adversarial-spread" -> W.adversarial_spread ~n ~m
  | "figure1" -> W.figure1 ()
  | other -> failwith ("unknown workload: " ^ other)

let gen_cmd =
  let workload_arg =
    let doc =
      "Workload family: " ^ String.concat ", " workloads ^ "."
    in
    Arg.(
      value
      & opt (enum (List.map (fun w -> (w, w)) workloads)) "grid-batch"
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc)
  in
  let n_arg =
    Arg.(value & opt int 20 & info [ "n"; "jobs" ] ~docv:"N" ~doc:"Number of jobs.")
  in
  let m_arg =
    Arg.(
      value & opt int 6 & info [ "m"; "machines" ] ~docv:"M" ~doc:"Number of machines.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output instance file.")
  in
  let run workload n m seed out =
    let rng = Suu_prob.Rng.create seed in
    let w = gen_workload workload rng ~n ~m in
    Suu_harness.Io.save out w.Suu_workloads.Workload.instance;
    Printf.printf "wrote %s: %s\n" out w.Suu_workloads.Workload.description
  in
  let term = Term.(const run $ workload_arg $ n_arg $ m_arg $ seed_arg $ out_arg) in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a workload instance") term

let print_info inst =
  let dag = Suu_core.Instance.dag inst in
  Printf.printf "jobs:      %d\n" (Suu_core.Instance.n inst);
  Printf.printf "machines:  %d\n" (Suu_core.Instance.m inst);
  Printf.printf "edges:     %d\n" (Suu_dag.Dag.edge_count dag);
  Printf.printf "class:     %s\n"
    (Suu_dag.Classify.to_string (Suu_dag.Classify.classify dag));
  Printf.printf "width:     %d\n" (Suu_dag.Dag.width dag);
  Printf.printf "crit path: %d jobs\n" (Suu_dag.Dag.longest_path dag);
  let bounds = Suu_algo.Bounds.compute inst in
  Format.printf "bounds:    %a@." Suu_algo.Bounds.pp bounds

let info_cmd =
  let run file = print_info (Suu_harness.Io.load file) in
  Cmd.v
    (Cmd.info "info" ~doc:"Classify an instance and print lower bounds")
    Term.(const run $ instance_arg)

let decompose_cmd =
  let run file =
    let inst = Suu_harness.Io.load file in
    let dag = Suu_core.Instance.dag inst in
    match Suu_dag.Classify.classify dag with
    | Suu_dag.Classify.General ->
        Printf.printf "class: general (not a directed forest)\n";
        Printf.printf "level decomposition (layered heuristic blocks):\n";
        List.iteri
          (fun k level ->
            Printf.printf "  level %d: %s\n" k
              (String.concat " " (List.map string_of_int level)))
          (Suu_algo.Layered.levels dag)
    | shape ->
        Printf.printf "class: %s\n" (Suu_dag.Classify.to_string shape);
        let d = Suu_dag.Chain_decomp.decompose dag in
        Printf.printf "chain decomposition: %d blocks (bound %d)\n"
          (Suu_dag.Chain_decomp.width d)
          (Suu_dag.Chain_decomp.width_bound dag d.Suu_dag.Chain_decomp.mode);
        Array.iteri
          (fun b chains ->
            Printf.printf "  block %d: %s\n" b
              (String.concat " | "
                 (List.map
                    (fun c -> String.concat "->" (List.map string_of_int c))
                    chains)))
          d.Suu_dag.Chain_decomp.blocks
  in
  Cmd.v
    (Cmd.info "decompose"
       ~doc:"Print the chain decomposition (Lemma 4.6) of an instance's DAG")
    Term.(const run $ instance_arg)

(* A build can fail on a valid instance: the paper's oblivious column
   has no algorithm for a general DAG and solves (LP1)/(LP2), which can
   fail numerically, a tiny p_min can push the guess-doubling schedules
   past their length budget, and a p whose 1/p overflows leaves the
   fixed column no finite load. Report any of them and exit 1. *)
let exit_on_build_failure cmd f =
  try f () with
  | Suu_algo.Solver.Unsupported msg ->
      Printf.eprintf "suu %s: unsupported: %s\n" cmd msg;
      exit 1
  | Suu_algo.Lp_relax.Lp_failure msg ->
      Printf.eprintf "suu %s: lp: %s\n" cmd msg;
      exit 1
  | Suu_algo.Accum.Too_long msg | Suu_algo.Fixed_assignment.Too_expensive msg
    ->
      Printf.eprintf "suu %s: too expensive: %s\n" cmd msg;
      exit 1

let algo_names =
  [ "auto"; "adaptive"; "oblivious"; "improved"; "fixed"; "baselines" ]

let solve_cmd =
  let algo_arg =
    let doc = "Algorithm: auto|adaptive|oblivious|improved|fixed|baselines." in
    Arg.(
      value
      & opt (enum (List.map (fun a -> (a, a)) algo_names)) "auto"
      & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)
  in
  let run file algo trials seed =
    let inst = Suu_harness.Io.load file in
    let bounds = Suu_algo.Bounds.compute inst in
    let lb = Suu_algo.Bounds.best bounds in
    let build kind =
      exit_on_build_failure "solve" (fun () -> Suu_algo.Solver.solve ~kind inst)
    in
    let policies =
      match algo with
      | "adaptive" -> [ build `Adaptive ]
      | "oblivious" -> [ build `Oblivious ]
      | "improved" -> [ build `Improved ]
      | "fixed" -> [ build `Fixed ]
      | "baselines" -> Suu_algo.Baselines.all ~seed inst
      | _ ->
          (* Built in column order, so the first failing build is the
             one reported. A general DAG drops the oblivious column. *)
          let adaptive = build `Adaptive in
          let oblivious =
            exit_on_build_failure "solve" (fun () ->
                match Suu_algo.Solver.solve ~kind:`Oblivious inst with
                | p -> [ p ]
                | exception Suu_algo.Solver.Unsupported _ -> [])
          in
          let improved = build `Improved in
          let fixed = build `Fixed in
          (adaptive :: oblivious) @ [ improved; fixed ]
    in
    let ms =
      Suu_harness.Experiment.compare_policies ~trials ~seed inst
        ~lower_bound:lb policies
    in
    Format.printf "bounds: %a@." Suu_algo.Bounds.pp bounds;
    Suu_harness.Table.print ~title:"expected makespan"
      ~header:Suu_harness.Experiment.row_header
      (List.map Suu_harness.Experiment.row ms)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Schedule an instance and estimate the makespan")
    Term.(const run $ instance_arg $ algo_arg $ trials_arg $ seed_arg)

let exact_cmd =
  let run file =
    let inst = Suu_harness.Io.load file in
    match Suu_algo.Malewicz.optimal inst with
    | r ->
        Printf.printf "TOPT = %.6f (%d states)\n" r.Suu_algo.Malewicz.value
          r.Suu_algo.Malewicz.states
    | exception Suu_algo.Malewicz.Too_expensive msg ->
        Printf.eprintf "too expensive: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Optimal expected makespan (Malewicz DP)")
    Term.(const run $ instance_arg)

let plan_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output plan file.")
  in
  let run file out =
    let inst = Suu_harness.Io.load file in
    let sched =
      exit_on_build_failure "plan" (fun () ->
          match Suu_dag.Classify.classify (Suu_core.Instance.dag inst) with
          | Suu_dag.Classify.Independent -> Suu_algo.Lp_indep.schedule inst
          | Suu_dag.Classify.Chains -> Suu_algo.Chains.schedule inst
          | Suu_dag.Classify.Out_trees | Suu_dag.Classify.In_trees ->
              Suu_algo.Trees.schedule inst
          | Suu_dag.Classify.Forest -> Suu_algo.Forest.schedule inst
          | Suu_dag.Classify.General -> Suu_algo.Layered.schedule inst)
    in
    Suu_harness.Io.save_schedule out sched;
    Printf.printf "wrote %s: %d prefix steps, %d cycle steps (%s)\n" out
      (Suu_core.Oblivious.prefix_length sched)
      (Suu_core.Oblivious.cycle_length sched)
      (Suu_algo.Solver.algorithm_name ~allow_heuristic:true inst)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Compute an oblivious schedule and write it to a plan file")
    Term.(const run $ instance_arg $ out_arg)

let simulate_cmd =
  let plan_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:"Replay a plan file instead of the adaptive policy.")
  in
  let gantt_arg =
    Arg.(
      value & flag
      & info [ "gantt" ] ~doc:"Render the execution as a Gantt chart.")
  in
  let run file plan gantt trials seed =
    let inst = Suu_harness.Io.load file in
    let policy =
      match plan with
      | Some path ->
          Suu_core.Policy.of_oblivious "plan"
            (Suu_harness.Io.load_schedule path)
      | None -> Suu_algo.Solver.solve ~kind:`Adaptive inst
    in
    let rng = Suu_prob.Rng.create seed in
    let history = Suu_sim.Engine.trace rng inst policy in
    if gantt then
      print_string
        (Suu_harness.Gantt.of_trace ~m:(Suu_core.Instance.m inst) history)
    else
      List.iter
        (fun (t, a, completed) ->
          Format.printf "step %3d  %a  done: %s@." t Suu_core.Assignment.pp a
            (String.concat "," (List.map string_of_int completed)))
        history;
    let e = Suu_sim.Engine.estimate_makespan ~trials rng inst policy in
    Format.printf "E[makespan] over %d trials: %.2f ±%.2f@." trials
      e.Suu_sim.Engine.stats.Suu_prob.Stats.mean
      e.Suu_sim.Engine.stats.Suu_prob.Stats.ci95
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Trace one execution step by step (adaptive, or a saved plan)")
    Term.(const run $ instance_arg $ plan_arg $ gantt_arg $ trials_arg $ seed_arg)

(* Graceful shutdown for `suu serve`: the first SIGINT/SIGTERM stops the
   reader (the service then drains the queue, joins the workers and
   emits its shutdown report); a second signal restores the default
   disposition, so a wedged drain can still be killed.

   OCaml may run the handler on any domain at a safe point. Only the
   main domain — and only while it is blocked in [input_line] — may
   raise to interrupt the read; everywhere else the handler just sets
   the flag, which the transport checks before the next read. *)
exception Shutdown_signal

let serve_stopping = Atomic.make false
let serve_in_recv = Atomic.make false

let install_serve_signals () =
  let main = Domain.self () in
  let restore_default () =
    List.iter
      (fun s -> Sys.set_signal s Sys.Signal_default)
      [ Sys.sigint; Sys.sigterm ]
  in
  let handler _ =
    Atomic.set serve_stopping true;
    restore_default ();
    if Domain.self () = main && Atomic.get serve_in_recv then
      raise Shutdown_signal
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle handler))
    [ Sys.sigint; Sys.sigterm ]

let signal_aware_stdio () : (module Suu_service.Service.TRANSPORT) =
  (module struct
    let recv () =
      if Atomic.get serve_stopping then None
      else begin
        (* The whole window during which [serve_in_recv] is set must be
           covered by the handler: the signal can land between
           [input_line] returning and the flag being cleared, and an
           escaping [Shutdown_signal] would kill the reader loop from
           outside the service — skipping the drain and the final
           shutdown report. Catching it here turns that race into a
           clean end-of-input. *)
        match
          Atomic.set serve_in_recv true;
          let line = In_channel.input_line In_channel.stdin in
          Atomic.set serve_in_recv false;
          line
        with
        | line -> if Atomic.get serve_stopping then None else line
        | exception Shutdown_signal ->
            Atomic.set serve_in_recv false;
            None
      end

    let send line =
      print_string line;
      print_newline ();
      flush stdout
  end)

let serve_cmd =
  let workers_arg =
    let doc =
      "Worker domains (0 = one fewer than the recommended domain count)."
    in
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"W" ~doc)
  in
  let queue_arg =
    let doc = "Request queue capacity; further requests are rejected." in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"Q" ~doc)
  in
  let cache_arg =
    let doc =
      "Result cache capacity (LRU entries; 0 disables result caching). \
       The 32-entry cache of built oblivious policies is not affected."
    in
    Arg.(value & opt int 128 & info [ "cache" ] ~docv:"C" ~doc)
  in
  let deadline_arg =
    let doc =
      "Default per-request deadline in milliseconds (requests may override \
       with deadline_ms; unset = no deadline)."
    in
    Arg.(
      value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let max_restarts_arg =
    let doc =
      "Replacement worker domains the supervisor may spawn after crashes."
    in
    Arg.(value & opt int 8 & info [ "max-restarts" ] ~docv:"N" ~doc)
  in
  let retries_arg =
    let doc =
      "Retries (capped exponential backoff) for transiently-failed requests."
    in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let degrade_arg =
    let doc =
      "Queue depth at which new requests run with a degraded trial count \
       (responses carry \"degraded\":true); unset disables degradation."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "degrade-watermark" ] ~docv:"DEPTH" ~doc)
  in
  let estimate_domains_arg =
    let doc =
      "Domains per Monte-Carlo estimate (1 = run a request's trials inline \
       in its worker; results are identical either way)."
    in
    Arg.(value & opt int 1 & info [ "estimate-domains" ] ~docv:"D" ~doc)
  in
  let ci_target_arg =
    let doc =
      "Default CI-width stopping target for Monte-Carlo requests that omit \
       \"ci_target\": estimates stop once the 95% CI half-width of the mean \
       makespan is at most $(docv) (checked every 63 trials); responses \
       report the executed trial count. Unset = run every trial."
    in
    Arg.(
      value & opt (some float) None & info [ "ci-target" ] ~docv:"W" ~doc)
  in
  let fault_arg =
    let doc =
      "Deterministic fault injection for demos/chaos testing, e.g. \
       'seed=7,crash=0.01,transient=0.1,stall=0.05,stall_ms=20'. The seed \
       defaults to \\$SUU_FAULT_SEED when set."
    in
    Arg.(value & opt string "" & info [ "fault-spec" ] ~docv:"SPEC" ~doc)
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Suppress the shutdown metrics dump.")
  in
  let stats_format_arg =
    let doc =
      "Shutdown metrics dump format: 'text' (human-readable) or 'prom' \
       (Prometheus text exposition, including the latency histogram and \
       engine counters)."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("prom", `Prom) ]) `Text
      & info [ "stats-format" ] ~docv:"FMT" ~doc)
  in
  let trace_out_arg =
    let doc =
      "Record request/execute spans and write them as Chrome trace-event \
       JSON (Perfetto-loadable) to $(docv) on shutdown."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let listen_arg =
    let doc =
      "Serve over TCP instead of stdin/stdout: listen on $(docv) \
       ('host:port', ':port' or 'port'; port 0 picks a free port), announce \
       'listening HOST:PORT' on stdout, then run one service instance per \
       accepted connection (same line protocol, connections served in \
       sequence)."
    in
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let max_conns_arg =
    let doc =
      "With --listen: exit after serving this many connections (0 = keep \
       accepting until signalled)."
    in
    Arg.(value & opt int 0 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let run workers queue cache trials seed deadline max_restarts retries
      degrade estimate_domains ci_target fault_spec quiet stats_format trace_out
      listen max_conns =
    (match ci_target with
    | Some w when w <= 0. ->
        Printf.eprintf "suu serve: --ci-target must be > 0\n";
        exit 2
    | _ -> ());
    let module Service = Suu_service.Service in
    let module Fault = Suu_service.Fault in
    let default_seed =
      Option.bind (Sys.getenv_opt "SUU_FAULT_SEED") int_of_string_opt
      |> Option.value ~default:1
    in
    let fault =
      match Fault.of_string ~default_seed fault_spec with
      | Ok f -> f
      | Error msg ->
          Printf.eprintf "suu serve: %s\n" msg;
          exit 2
    in
    let config =
      {
        Service.workers =
          (if workers > 0 then workers
           else Service.default_config.Service.workers);
        queue_capacity = max 1 queue;
        cache_capacity = max 0 cache;
        default_trials = trials;
        default_seed = seed;
        default_deadline_ms = deadline;
        max_restarts = max 0 max_restarts;
        retries = max 0 retries;
        retry_backoff_ms = Service.default_config.Service.retry_backoff_ms;
        degrade_watermark = Option.map (max 0) degrade;
        degrade_trials = Service.default_config.Service.degrade_trials;
        estimate_domains = max 1 estimate_domains;
        default_ci_target = ci_target;
        fault;
        tracer =
          (match trace_out with
          | None -> Suu_obs.Trace.disabled
          | Some _ -> Suu_obs.Trace.create ~enabled:true ());
      }
    in
    install_serve_signals ();
    let dump r =
      prerr_string
        (match stats_format with
        | `Text -> Service.report_to_string r
        | `Prom -> Service.report_to_prom ~workers:config.Service.workers r)
    in
    (match listen with
    | None ->
        let report = Service.serve config (signal_aware_stdio ()) in
        if not quiet then dump report
    | Some addr -> (
        (* TCP worker: a torn client socket must surface as EPIPE,
           not kill the process. *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        match Suu_service.Tcp.listen addr with
        | Error msg ->
            Printf.eprintf "suu serve: %s\n" msg;
            exit 2
        | Ok (lsock, bound) ->
            (* The announce is the handshake a spawning coordinator
               waits for before dialling. *)
            print_string ("listening " ^ bound);
            print_newline ();
            flush stdout;
            (* One service instance per connection; each prints its own
               shutdown report (stats and cache reset per connection). *)
            Suu_service.Tcp.serve_connections ~max_conns:(max 0 max_conns)
              ~stopping:(fun () -> Atomic.get serve_stopping)
              ~on_report:(fun r ->
                if not quiet then begin
                  dump r;
                  prerr_newline ()
                end)
              config lsock));
    (match trace_out with
    | None -> ()
    | Some path ->
        let events =
          List.map
            (Suu_obs.Trace_event.of_span ~pid:0)
            (Suu_obs.Trace.spans config.Service.tracer)
        in
        Out_channel.with_open_text path (fun oc ->
            Suu_obs.Trace_event.write oc
              (Suu_obs.Trace_event.process_name ~pid:0 "suu serve" :: events));
        Printf.eprintf "wrote %s: %d spans\n" path (List.length events))
  in
  let term =
    Term.(
      const run $ workers_arg $ queue_arg $ cache_arg $ trials_arg $ seed_arg
      $ deadline_arg $ max_restarts_arg $ retries_arg $ degrade_arg
      $ estimate_domains_arg $ ci_target_arg $ fault_arg $ quiet_arg
      $ stats_format_arg $ trace_out_arg $ listen_arg $ max_conns_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve scheduling requests over stdin/stdout (one JSON request per \
          line; see the suu.service library documentation for the protocol)")
    term

let coordinator_cmd =
  let shards_arg =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N" ~doc:"Worker shard processes to spawn.")
  in
  let replicas_arg =
    Arg.(
      value & opt int 64
      & info [ "replicas" ] ~docv:"R"
          ~doc:"Consistent-hash ring virtual nodes per shard.")
  in
  let retries_arg =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Re-dispatches (to a surviving shard) per request lost with \
             its shard.")
  in
  let heartbeat_arg =
    let doc = "Shard heartbeat period in milliseconds (0 disables)." in
    Arg.(value & opt float 100. & info [ "heartbeat-ms" ] ~docv:"MS" ~doc)
  in
  let transport_arg =
    let doc =
      "Worker transport: 'pipe' spawns workers as pipe children; 'tcp' \
       spawns workers listening on 127.0.0.1 (port picked by the kernel, \
       announced on their stdout) and dials them — same wire protocol, \
       plus reconnect with backoff and idempotent re-send on torn sockets."
    in
    Arg.(
      value
      & opt (enum [ ("pipe", `Pipe); ("tcp", `Tcp) ]) `Pipe
      & info [ "transport" ] ~docv:"T" ~doc)
  in
  let respawn_budget_arg =
    let doc =
      "Respawn attempts per lost shard (capped-exponential backoff, \
       deterministic jitter); 0 = degrade-only, the fleet only shrinks."
    in
    Arg.(value & opt int 2 & info [ "respawn-budget" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains per shard.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"Q" ~doc:"Request queue capacity per shard.")
  in
  let cache_arg =
    Arg.(
      value & opt int 128
      & info [ "cache" ] ~docv:"C"
          ~doc:"Result cache capacity per shard (LRU entries).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline, enforced by the workers.")
  in
  let fault_arg =
    let doc =
      "Coordinator-side fault injection, e.g. 'seed=7,kill=0.05': each \
       dispatch may SIGKILL its target shard first (deterministic in the \
       seed, which defaults to \\$SUU_FAULT_SEED)."
    in
    Arg.(value & opt string "" & info [ "fault-spec" ] ~docv:"SPEC" ~doc)
  in
  let worker_fault_arg =
    let doc = "Fault spec forwarded to every worker shard's --fault-spec." in
    Arg.(
      value & opt string "" & info [ "worker-fault-spec" ] ~docv:"SPEC" ~doc)
  in
  let ci_target_arg =
    let doc =
      "Default CI-width stopping target for Monte-Carlo requests that omit \
       \"ci_target\" (see suu serve --ci-target). Forwarded to every \
       spawned shard, which applies it to the requests it is sent."
    in
    Arg.(
      value & opt (some float) None & info [ "ci-target" ] ~docv:"W" ~doc)
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Suppress the shutdown metrics dump.")
  in
  let run shards replicas retries heartbeat_ms transport respawn_budget workers queue cache trials seed
      deadline ci_target fault_spec worker_fault_spec quiet =
    (match ci_target with
    | Some w when w <= 0. ->
        Printf.eprintf "suu coordinator: --ci-target must be > 0\n";
        exit 2
    | _ -> ());
    let module Coordinator = Suu_shard.Coordinator in
    let module Fault = Suu_service.Fault in
    let default_seed =
      Option.bind (Sys.getenv_opt "SUU_FAULT_SEED") int_of_string_opt
      |> Option.value ~default:1
    in
    let fault =
      match Fault.of_string ~default_seed fault_spec with
      | Ok f -> f
      | Error msg ->
          Printf.eprintf "suu coordinator: %s\n" msg;
          exit 2
    in
    (match Fault.of_string ~default_seed worker_fault_spec with
    | Ok _ -> ()
    | Error msg ->
        Printf.eprintf "suu coordinator: %s\n" msg;
        exit 2);
    let exe = Sys.executable_name in
    let spawn i =
      let argv =
        [
          [ exe; "serve"; "--quiet" ];
          (match transport with
          | `Pipe -> []
          | `Tcp ->
              (* One connection is a spawned worker's whole lifetime:
                 after its coordinator hangs up it must exit, or the
                 shutdown waitpid would hang on the accept loop. *)
              [ "--listen"; "127.0.0.1:0"; "--max-conns"; "1" ]);
          [ "--workers"; string_of_int (max 1 workers) ];
          [ "--queue"; string_of_int (max 1 queue) ];
          [ "--cache"; string_of_int (max 0 cache) ];
          [ "--trials"; string_of_int trials ];
          [ "--seed"; string_of_int seed ];
          (match deadline with
          | None -> []
          | Some d -> [ "--deadline-ms"; string_of_float d ]);
          (match ci_target with
          | None -> []
          | Some w -> [ "--ci-target"; string_of_float w ]);
          (match worker_fault_spec with
          | "" -> []
          | spec -> [ "--fault-spec"; spec ]);
        ]
        |> List.concat |> Array.of_list
      in
      match transport with
      | `Pipe -> Suu_shard.Client.process ~id:i ~prog:exe ~argv
      | `Tcp -> Suu_shard.Client.tcp_process ~id:i ~fault ~prog:exe ~argv ()
    in
    let config =
      {
        Coordinator.shards = max 1 shards;
        replicas = max 1 replicas;
        retries = max 0 retries;
        retry_backoff_ms =
          Coordinator.default_config.Coordinator.retry_backoff_ms;
        heartbeat_ms = (if heartbeat_ms > 0. then Some heartbeat_ms else None);
        suspect_after =
          Coordinator.default_config.Coordinator.suspect_after;
        dead_after = Coordinator.default_config.Coordinator.dead_after;
        respawn_budget = max 0 respawn_budget;
        respawn_backoff_ms =
          Coordinator.default_config.Coordinator.respawn_backoff_ms;
        default_trials = trials;
        default_seed = seed;
        default_ci_target = ci_target;
        fault;
        tracer = Suu_obs.Trace.disabled;
      }
    in
    install_serve_signals ();
    let report = Coordinator.serve config ~spawn (signal_aware_stdio ()) in
    if not quiet then prerr_string (Coordinator.report_to_string report)
  in
  let term =
    Term.(
      const run $ shards_arg $ replicas_arg $ retries_arg $ heartbeat_arg
      $ transport_arg
      $ respawn_budget_arg $ workers_arg $ queue_arg $ cache_arg $ trials_arg
      $ seed_arg $ deadline_arg $ ci_target_arg $ fault_arg $ worker_fault_arg
      $ quiet_arg)
  in
  Cmd.v
    (Cmd.info "coordinator"
       ~doc:
         "Serve scheduling requests by sharding them across worker \
          processes: every request routes whole by consistent hashing on \
          the result-cache key (answers byte-identical to one suu serve), \
          and worker loss is retried on surviving shards")
    term

let trace_cmd =
  let module ET = Suu_obs.Exec_trace in
  let file_arg =
    let doc =
      "Instance file; when absent, a grid-batch workload is generated from \
       --jobs/--machines/--seed."
    in
    Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)
  in
  let jobs_arg =
    Arg.(
      value & opt int 8
      & info [ "jobs" ] ~docv:"N" ~doc:"Jobs of the generated instance.")
  in
  let machines_arg =
    Arg.(
      value & opt int 4
      & info [ "machines" ] ~docv:"M"
          ~doc:"Machines of the generated instance.")
  in
  let policy_arg =
    let doc = "Policy to execute: auto|adaptive|oblivious." in
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("adaptive", `Adaptive); ("oblivious", `Oblivious) ]) `Auto
      & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let trials_arg =
    Arg.(
      value & opt int 5
      & info [ "trials" ] ~docv:"K" ~doc:"Monte-Carlo trials to estimate over.")
  in
  let sample_every_arg =
    Arg.(
      value & opt int 1
      & info [ "sample-every" ] ~docv:"S"
          ~doc:"Capture every $(docv)-th trial (1 = all).")
  in
  let limit_arg =
    Arg.(
      value & opt int 10_000
      & info [ "limit" ] ~docv:"STEPS"
          ~doc:"Cap on recorded steps per captured trial.")
  in
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Chrome trace-event JSON output (load in ui.perfetto.dev or \
             chrome://tracing).")
  in
  let csv_arg =
    Arg.(
      value & opt string "mass.csv"
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Per-job mass-vs-time CSV output.")
  in
  let run file jobs machines policy trials seed sample_every limit out csv =
    let inst =
      match file with
      | Some f -> Suu_harness.Io.load f
      | None ->
          let rng = Suu_prob.Rng.create seed in
          (Suu_workloads.Workload.grid_batch rng ~n:jobs ~m:machines)
            .Suu_workloads.Workload.instance
    in
    let kind =
      match policy with `Oblivious -> `Oblivious | `Auto | `Adaptive -> `Adaptive
    in
    let pol =
      exit_on_build_failure "trace" (fun () -> Suu_algo.Solver.solve ~kind inst)
    in
    let observer, captured =
      ET.collector ~sample_every:(max 1 sample_every) ~limit:(max 1 limit) ()
    in
    let e =
      Suu_sim.Engine.estimate_makespan_seeded ~observer ~trials ~seed inst pol
    in
    let captured = captured () in
    let n = Suu_core.Instance.n inst and m = Suu_core.Instance.m inst in
    let prob ~machine ~job = Suu_core.Instance.prob inst ~machine ~job in
    let events =
      List.concat_map (ET.to_events ~prob ~machines:m ~jobs:n) captured
    in
    Out_channel.with_open_text out (fun oc -> Suu_obs.Trace_event.write oc events);
    let rows = List.concat_map (ET.mass_csv_rows ~prob ~jobs:n) captured in
    Suu_harness.Csv.write ~path:csv ~header:ET.csv_header rows;
    Printf.printf "E[makespan] over %d trials of %s: %.2f ±%.2f\n" trials
      pol.Suu_core.Policy.name e.Suu_sim.Engine.stats.Suu_prob.Stats.mean
      e.Suu_sim.Engine.stats.Suu_prob.Stats.ci95;
    Printf.printf "wrote %s: %d trace events from %d captured trials\n" out
      (List.length events) (List.length captured);
    Printf.printf "wrote %s: %d rows\n" csv (List.length rows)
  in
  let term =
    Term.(
      const run $ file_arg $ jobs_arg $ machines_arg $ policy_arg $ trials_arg
      $ seed_arg $ sample_every_arg $ limit_arg $ out_arg $ csv_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Capture per-step execution traces of sampled Monte-Carlo trials \
          and render them as Chrome trace-event JSON plus a per-job \
          mass-vs-time CSV. A captured trial k is a naive-stepper replay \
          of (seed, k): distribution-equivalent to the trial behind the \
          printed mean, not a copy of it")
    term

let check_cmd =
  let module Check = Suu_check in
  let seed_arg =
    let doc = "Master seed; every generated case derives from it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let count_arg =
    let doc = "Cases generated per property." in
    Arg.(value & opt int 30 & info [ "count" ] ~docv:"N" ~doc)
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Run 10 cases per property (CI smoke mode).")
  in
  let props_arg =
    let doc =
      "Run only the named property (repeatable). Hidden properties can be \
       selected this way."
    in
    Arg.(value & opt_all string [] & info [ "p"; "property" ] ~docv:"NAME" ~doc)
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List registered properties and exit.")
  in
  let replay_arg =
    let doc =
      "Re-run a single failure from its repro line (as printed on failure), \
       instead of generating cases."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"JSON" ~doc)
  in
  let out_arg =
    let doc = "Write failing-case repro lines (one JSON per line) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let print_failure (f : Check.Runner.failure) =
    Printf.printf "FAIL %s: %s\n" f.Check.Runner.property f.Check.Runner.message;
    Printf.printf "  original: %s (case %d, seed %d)\n"
      (Check.Case.summary f.Check.Runner.original)
      f.Check.Runner.case_index f.Check.Runner.case_seed;
    Printf.printf "  shrunk:   %s (%d shrink steps): %s\n"
      (Check.Case.summary f.Check.Runner.shrunk)
      f.Check.Runner.shrink_steps f.Check.Runner.shrunk_message;
    Printf.printf "  repro: %s\n" (Check.Runner.repro_json f)
  in
  let run seed count quick names list replay out =
    if list then begin
      List.iter
        (fun (p : Check.Property.t) ->
          Printf.printf "%-20s %s\n" p.Check.Property.name p.Check.Property.doc)
        Check.Registry.visible;
      exit 0
    end;
    match replay with
    | Some line -> (
        match Check.Runner.replay line with
        | Error msg ->
            Printf.eprintf "suu check: %s\n" msg;
            exit 2
        | Ok (prop, case) -> (
            Printf.printf "replay %s on %s\n" prop.Check.Property.name
              (Check.Case.summary case);
            match prop.Check.Property.check case with
            | Check.Property.Pass ->
                print_endline "ok: property passes on this case";
                exit 0
            | Check.Property.Skip reason ->
                Printf.printf "skip: %s\n" reason;
                exit 0
            | Check.Property.Fail msg ->
                Printf.printf "FAIL %s: %s\n" prop.Check.Property.name msg;
                exit 1))
    | None ->
        let props =
          match names with
          | [] -> Check.Registry.visible
          | names ->
              List.map
                (fun name ->
                  match Check.Registry.find name with
                  | Some p -> p
                  | None ->
                      Printf.eprintf
                        "suu check: unknown property %S (try --list)\n" name;
                      exit 2)
                names
        in
        let count = if quick then min count 10 else count in
        let on_property (r : Check.Runner.prop_report) =
          (match r.Check.Runner.failure with
          | None ->
              let skipped =
                if r.Check.Runner.skipped > 0 then
                  Printf.sprintf " (%d skipped)" r.Check.Runner.skipped
                else ""
              in
              Printf.printf "ok   %-20s %d cases%s\n"
                r.Check.Runner.prop.Check.Property.name r.Check.Runner.cases
                skipped
          | Some f -> print_failure f);
          flush stdout
        in
        let report = Check.Runner.run ~on_property ~seed ~count props in
        Printf.printf "check: %d properties, %d cases, %d failures\n"
          (List.length report.Check.Runner.props)
          report.Check.Runner.total_cases
          (List.length report.Check.Runner.failures);
        (match out with
        | Some file when report.Check.Runner.failures <> [] ->
            Out_channel.with_open_text file (fun oc ->
                List.iter
                  (fun f ->
                    Out_channel.output_string oc (Check.Runner.repro_json f);
                    Out_channel.output_char oc '\n')
                  report.Check.Runner.failures)
        | _ -> ());
        if not (Check.Runner.ok report) then exit 1
  in
  let term =
    Term.(
      const run $ seed_arg $ count_arg $ quick_arg $ props_arg $ list_arg
      $ replay_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the property-based conformance suite (seeded generators, \
          brute-force and cross-implementation oracles, shrinking)")
    term

let () =
  let doc = "multiprocessor scheduling under uncertainty (Lin-Rajaraman SPAA'07)" in
  let info = Cmd.info "suu" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd;
            info_cmd;
            solve_cmd;
            exact_cmd;
            simulate_cmd;
            decompose_cmd;
            plan_cmd;
            serve_cmd;
            coordinator_cmd;
            trace_cmd;
            check_cmd;
          ]))
