(* A hand-rolled fixed-size domain pool. The container deliberately has
   no domainslib, and the scheduler only needs one primitive anyway: a
   blocking indexed parallel-for with dynamic work stealing (tasks vary
   wildly in cost — a blocked transaction step is ~free, a grounding is
   not). So that is all we build.

   Protocol: the caller publishes one [job] under [mu] and bumps [gen];
   workers sleep on [cv] until they observe a generation newer than the
   last one they served. Item hand-out is a single fetch-and-add on
   [next], so the mutex is only touched at region start/end and for the
   completion count. The caller participates in the region and then
   waits on [done_cv] until [completed = total]. *)

type job = {
  run_one : int -> unit;
  total : int;
  next : int Atomic.t;
  mutable completed : int;
  mutable failed : exn option;
}

type t = {
  n_domains : int;
  mutable workers : unit Domain.t list;
  mu : Mutex.t;
  cv : Condition.t;           (* workers: a new job (or shutdown) is up *)
  done_cv : Condition.t;      (* caller: the current job has quiesced *)
  mutable job : job option;
  mutable gen : int;
  mutable shutdown : bool;
  busy : int Atomic.t;        (* domains currently inside a region *)
}

let m_busy = Ent_obs.Obs.gauge "par.pool.busy_domains"

let domains t = t.n_domains

(* Pull items until the bag is empty. The first exception is recorded;
   later items still run (an abandoned item would hang [completed]). *)
let work_loop t job =
  Ent_obs.Obs.set m_busy (float_of_int (1 + Atomic.fetch_and_add t.busy 1));
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.total then begin
      (try job.run_one i
       with e ->
         Mutex.lock t.mu;
         if job.failed = None then job.failed <- Some e;
         Mutex.unlock t.mu);
      Mutex.lock t.mu;
      job.completed <- job.completed + 1;
      if job.completed = job.total then Condition.broadcast t.done_cv;
      Mutex.unlock t.mu;
      go ()
    end
  in
  go ();
  Ent_obs.Obs.set m_busy (float_of_int (Atomic.fetch_and_add t.busy (-1) - 1))

let worker t =
  let last_gen = ref 0 in
  let rec serve () =
    Mutex.lock t.mu;
    while (not t.shutdown) && t.gen = !last_gen do
      Condition.wait t.cv t.mu
    done;
    if t.shutdown then Mutex.unlock t.mu
    else begin
      last_gen := t.gen;
      let job = t.job in
      Mutex.unlock t.mu;
      (match job with Some j -> work_loop t j | None -> ());
      serve ()
    end
  in
  serve ()

let create ~domains =
  let n_domains = max 1 domains in
  let t =
    { n_domains; workers = []; mu = Mutex.create ();
      cv = Condition.create (); done_cv = Condition.create ();
      job = None; gen = 0; shutdown = false;
      busy = Atomic.make 0 }
  in
  t.workers <-
    List.init (n_domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let run_indexed t n f =
  if n <= 0 then ()
  else if t.n_domains = 1 || n = 1 then
    for i = 0 to n - 1 do f i done
  else begin
    let job =
      { run_one = f; total = n; next = Atomic.make 0;
        completed = 0; failed = None }
    in
    Mutex.lock t.mu;
    t.job <- Some job;
    t.gen <- t.gen + 1;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu;
    work_loop t job;
    Mutex.lock t.mu;
    while job.completed < job.total do
      Condition.wait t.done_cv t.mu
    done;
    t.job <- None;
    let failed = job.failed in
    Mutex.unlock t.mu;
    match failed with None -> () | Some e -> raise e
  end

let shutdown t =
  Mutex.lock t.mu;
  t.shutdown <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.mu;
  List.iter Domain.join t.workers;
  t.workers <- []
