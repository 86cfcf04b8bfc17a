(* A fixed pool of worker domains, hand-rolled on stdlib Domain +
   Mutex/Condition (no domainslib in the build environment).

   The pool runs one *batch* at a time: the submitting domain installs
   the batch's work function, wakes the workers, runs chunks itself as
   slot 0, then waits until every worker has finished the batch.  Work
   functions never raise — chunk runners capture task exceptions into
   the batch's result structure and the join re-raises deterministically
   (see map_range below). *)

module Budget = Nxc_guard.Budget
module Metrics = Nxc_obs.Metrics
module Span = Nxc_obs.Span
module Recorder = Nxc_obs.Recorder

type batch = {
  b_id : int;
  (* [work ~slot] must not raise; [slot] is 1-based for workers *)
  work : slot:int -> unit;
}

type t = {
  lock : Mutex.t;
  wake : Condition.t;  (* workers: a new batch (or stop) is available *)
  idle : Condition.t;  (* submitter: all workers finished the batch *)
  mutable batch : batch option;
  mutable running : int;  (* workers still inside the current batch *)
  mutable stop : bool;
  mutable joined : bool;
  n_workers : int;
  mutable domains : unit Domain.t array;
}

let m_batches = Metrics.counter "par.batches"
let m_tasks = Metrics.counter "par.tasks"
let m_chunks = Metrics.counter "par.chunks"

let worker_loop t slot =
  let seen = ref 0 in
  let rec next () =
    Mutex.lock t.lock;
    let rec wait () =
      if t.stop then begin
        Mutex.unlock t.lock;
        None
      end
      else
        match t.batch with
        | Some b when b.b_id <> !seen ->
            seen := b.b_id;
            Mutex.unlock t.lock;
            Some b
        | _ ->
            Condition.wait t.wake t.lock;
            wait ()
    in
    match wait () with
    | None -> ()
    | Some b ->
        b.work ~slot;
        Mutex.lock t.lock;
        t.running <- t.running - 1;
        if t.running = 0 then Condition.signal t.idle;
        Mutex.unlock t.lock;
        next ()
  in
  next ()

let create ?workers () =
  let n =
    match workers with
    | Some w -> max 0 w
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let t =
    { lock = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      batch = None;
      running = 0;
      stop = false;
      joined = false;
      n_workers = n;
      domains = [||] }
  in
  t.domains <-
    Array.init n (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.lock;
  let first = not t.stop in
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  if first && not t.joined then begin
    Array.iter Domain.join t.domains;
    t.joined <- true
  end

let slots t = t.n_workers + 1

(* Run [work] on every runner slot and wait for the stragglers.  The
   calling domain is slot 0. *)
let run_batch t work =
  Metrics.incr m_batches;
  Mutex.lock t.lock;
  let b = { b_id = (match t.batch with None -> 1 | Some p -> p.b_id + 1); work } in
  t.batch <- Some b;
  t.running <- t.n_workers;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  work ~slot:0;
  Mutex.lock t.lock;
  while t.running > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

(* Per-chunk capture of everything a sequential run would have put in
   global state: results, metric deltas, spans, and at most one
   exception (tasks within a chunk run in index order and stop at the
   first raise, like a sequential loop would). *)
type 'a chunk_out = {
  mutable spans : Span.t list;
  mutable events : Recorder.entry list;
  mutable buf : Metrics.buffer option;
  mutable failed : (exn * Printexc.raw_backtrace) option;
}

let sequential_map n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end

let parallel_map p n f =
  let g = Budget.current () in
  let nslots = slots p in
  (* roughly four chunks per slot *)
  let chunk = max 1 ((n + (4 * nslots) - 1) / (4 * nslots)) in
  let nchunks = (n + chunk - 1) / chunk in
  let results = Array.make n None in
  let outs =
    Array.init nchunks (fun _ ->
        { spans = []; events = []; buf = None; failed = None })
  in
  let slices = if Budget.is_limited g then Some (Budget.partition g nslots) else None in
  let slot_budget s =
    match slices with Some a -> a.(s) | None -> Budget.unlimited
  in
  let cursor = Atomic.make 0 in
  let run_chunk c =
    Metrics.incr m_chunks;
    let lo = c * chunk and hi = min n ((c + 1) * chunk) in
    let out = outs.(c) in
    let buf = Metrics.buffer () in
    out.buf <- Some buf;
    let ((), spans), events =
      Recorder.collect (fun () ->
          Span.collect (fun () ->
              Metrics.with_buffer buf (fun () ->
                  try
                    for i = lo to hi - 1 do
                      Metrics.incr m_tasks;
                      results.(i) <- Some (f i)
                    done
                  with e ->
                    out.failed <- Some (e, Printexc.get_raw_backtrace ()))))
    in
    out.spans <- spans;
    out.events <- events
  in
  let work ~slot =
    Budget.with_current (slot_budget slot) (fun () ->
        let rec loop () =
          let c = Atomic.fetch_and_add cursor 1 in
          if c < nchunks then begin
            run_chunk c;
            loop ()
          end
        in
        loop ())
  in
  run_batch p work;
  (* Join, in chunk (= index) order: merge the observability the chunks
     accumulated, stop at the first failed chunk — sequential execution
     would not have run anything past it. *)
  (match slices with Some a -> Budget.absorb g a | None -> ());
  let failure = ref None in
  (try
     Array.iter
       (fun out ->
         (match out.buf with Some b -> Metrics.merge b | None -> ());
         Span.absorb out.spans;
         Recorder.absorb out.events;
         match out.failed with
         | Some _ as f ->
             failure := f;
             raise Exit
         | None -> ())
       outs
   with Exit -> ());
  match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
      Array.map (function Some v -> v | None -> assert false) results

let map_range ?pool n f =
  if n < 0 then invalid_arg "Nxc_par.Pool.map_range: negative size";
  match pool with
  | None -> sequential_map n f
  | Some p -> if n = 0 then [||] else parallel_map p n f

let map ?pool f xs =
  let a = Array.of_list xs in
  map_range ?pool (Array.length a) (fun i -> f a.(i)) |> Array.to_list

(* the OCaml runtime's default domain limit, the calling domain
   included *)
let max_jobs = 128

let of_jobs jobs =
  if jobs < 0 || jobs > max_jobs then
    invalid_arg "Nxc_par.Pool.of_jobs: --jobs out of range"
  else if jobs = 1 then None
  else if jobs = 0 then Some (create ())
  else Some (create ~workers:(jobs - 1) ())

let with_jobs jobs f =
  match of_jobs jobs with
  | None -> f None
  | Some p ->
      Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f (Some p))
