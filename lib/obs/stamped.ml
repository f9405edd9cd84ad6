let shard_count = 16

type 'a t = {
  order : int Atomic.t;
  shards : (Mutex.t * (int * 'a) list ref) array;
}

let create () =
  {
    order = Atomic.make 0;
    shards = Array.init shard_count (fun _ -> (Mutex.create (), ref []));
  }

let push t v =
  let stamp = Atomic.fetch_and_add t.order 1 in
  let mu, buf = t.shards.((Domain.self () :> int) land (shard_count - 1)) in
  Mutex.lock mu;
  buf := (stamp, v) :: !buf;
  Mutex.unlock mu

let take_all t =
  Array.fold_left
    (fun acc (mu, buf) ->
      Mutex.lock mu;
      let l = !buf in
      buf := [];
      Mutex.unlock mu;
      List.rev_append l acc)
    [] t.shards

let drain t =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (take_all t) |> List.map snd

let clear t =
  ignore (take_all t);
  Atomic.set t.order 0
