type kind =
  | Packet_sent
  | Packet_dropped
  | Packet_delivered
  | Queue_overflow
  | Announce
  | Refresh
  | Summary
  | Nack
  | Query
  | Repair
  | Remove
  | Digest_mismatch
  | Timer_fired
  | Rate_change
  | Link_down
  | Link_up
  | Node_crash
  | Node_restart
  | Partition
  | Heal
  | Custom of string

let kind_to_string = function
  | Packet_sent -> "packet_sent"
  | Packet_dropped -> "packet_dropped"
  | Packet_delivered -> "packet_delivered"
  | Queue_overflow -> "queue_overflow"
  | Announce -> "announce"
  | Refresh -> "refresh"
  | Summary -> "summary"
  | Nack -> "nack"
  | Query -> "query"
  | Repair -> "repair"
  | Remove -> "remove"
  | Digest_mismatch -> "digest_mismatch"
  | Timer_fired -> "timer_fired"
  | Rate_change -> "rate_change"
  | Link_down -> "link_down"
  | Link_up -> "link_up"
  | Node_crash -> "node_crash"
  | Node_restart -> "node_restart"
  | Partition -> "partition"
  | Heal -> "heal"
  | Custom s -> s

let kind_of_string = function
  | "packet_sent" -> Packet_sent
  | "packet_dropped" -> Packet_dropped
  | "packet_delivered" -> Packet_delivered
  | "queue_overflow" -> Queue_overflow
  | "announce" -> Announce
  | "refresh" -> Refresh
  | "summary" -> Summary
  | "nack" -> Nack
  | "query" -> Query
  | "repair" -> Repair
  | "remove" -> Remove
  | "digest_mismatch" -> Digest_mismatch
  | "timer_fired" -> Timer_fired
  | "rate_change" -> Rate_change
  | "link_down" -> Link_down
  | "link_up" -> Link_up
  | "node_crash" -> Node_crash
  | "node_restart" -> Node_restart
  | "partition" -> Partition
  | "heal" -> Heal
  | s -> Custom s

type event = {
  time : float;
  src : string;
  kind : kind;
  detail : string;
  value : float;
  key : int;
  packet : int;
  hop : int;
  parent : int;
}

let no_id = -1

let event ~time ~src ?(detail = "") ?(value = 0.0) ?(key = no_id)
    ?(packet = no_id) ?(hop = no_id) ?(parent = no_id) kind =
  { time; src; kind; detail; value; key; packet; hop; parent }

type ring = {
  capacity : int;
  mutable buf : event array; (* doubles up to [capacity], then wraps *)
  mutable head : int; (* next write position *)
  mutable seen : int; (* events ever offered *)
}

(* events held: all of them until the ring first wraps *)
let held r = min r.seen (Array.length r.buf)

type t =
  | Null
  | Ring of ring
  | Writer of { write : event -> unit }
  | Filter of { keep : event -> bool; next : t }
  | Tee of t list

let null = Null
let enabled = function Null -> false | _ -> true

let memory ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.memory: capacity must be positive";
  Ring { capacity; buf = [||]; head = 0; seen = 0 }

let recorder ?(capacity = 512) () = memory ~capacity ()

let rec emit t ev =
  match t with
  | Null -> ()
  | Ring r ->
      let size = Array.length r.buf in
      if r.seen = size && size < r.capacity then begin
        (* never wrapped: the held events sit at [0, size) in order *)
        let buf = Array.make (min r.capacity (max 16 (2 * size))) ev in
        Array.blit r.buf 0 buf 0 size;
        r.buf <- buf;
        r.head <- size
      end;
      r.buf.(r.head) <- ev;
      r.head <- (if r.head + 1 = Array.length r.buf then 0 else r.head + 1);
      r.seen <- r.seen + 1
  | Writer w -> w.write ev
  | Filter f -> if f.keep ev then emit f.next ev
  | Tee sinks -> List.iter (fun s -> emit s ev) sinks

let ring name = function
  | Ring r -> r
  | _ -> invalid_arg ("Trace." ^ name ^ ": not a memory or recorder sink")

let events t =
  let r = ring "events" t in
  let size = Array.length r.buf in
  let acc = ref [] in
  (* newest first onto the list, so it comes out oldest first *)
  for i = 1 to held r do
    acc := r.buf.((r.head - i + size) mod size) :: !acc
  done;
  !acc

let recent = events
let seen t = (ring "seen" t).seen

let overwritten t =
  let r = ring "overwritten" t in
  r.seen - held r

let filter keep next = Filter { keep; next }

let with_src prefix next =
  filter (fun ev -> String.starts_with ~prefix ev.src) next

let with_kinds kinds next = filter (fun ev -> List.mem ev.kind kinds) next

let tee sinks = Tee sinks

let to_json ev =
  let base =
    [ ("t", Json.float ev.time); ("src", Json.string ev.src);
      ("kind", Json.string (kind_to_string ev.kind)) ]
  in
  let base =
    if ev.detail = "" then base
    else base @ [ ("detail", Json.string ev.detail) ]
  in
  let base =
    if Float.equal ev.value 0.0 then base
    else base @ [ ("v", Json.float ev.value) ]
  in
  (* Correlation fields carry identity, not measurement: omitted at
     the no-id default so uncorrelated events keep their PR-1 shape. *)
  let opt_id name v base =
    if v = no_id then base else base @ [ (name, Json.int v) ]
  in
  let base =
    base |> opt_id "key" ev.key |> opt_id "pkt" ev.packet
    |> opt_id "hop" ev.hop |> opt_id "par" ev.parent
  in
  Json.obj base

let of_json line =
  match Json.parse_flat line with
  | Error e -> Error e
  | Ok fields -> (
      let num name default =
        match Json.member name fields with
        | Some (Json.Number x) -> Ok x
        | None -> Ok default
        | Some _ -> Error (Printf.sprintf "field %S is not a number" name)
      in
      let str name default =
        match Json.member name fields with
        | Some (Json.String s) -> Ok s
        | None -> Ok default
        | Some _ -> Error (Printf.sprintf "field %S is not a string" name)
      in
      let id name =
        Result.map int_of_float (num name (float_of_int no_id))
      in
      match
        (num "t" nan, str "src" "", str "kind" "", str "detail" "",
         num "v" 0.0)
      with
      | Ok t, Ok src, Ok kind, Ok detail, Ok v -> (
          if Float.is_nan t then Error "missing field \"t\""
          else if kind = "" then Error "missing field \"kind\""
          else
            match (id "key", id "pkt", id "hop", id "par") with
            | Ok key, Ok packet, Ok hop, Ok parent ->
                Ok
                  { time = t; src; kind = kind_of_string kind; detail;
                    value = v; key; packet; hop; parent }
            | Error e, _, _, _
            | _, Error e, _, _
            | _, _, Error e, _
            | _, _, _, Error e -> Error e)
      | Error e, _, _, _, _
      | _, Error e, _, _, _
      | _, _, Error e, _, _
      | _, _, _, Error e, _
      | _, _, _, _, Error e -> Error e)

let csv_header = "time,src,kind,detail,value"

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv ev =
  Printf.sprintf "%s,%s,%s,%s,%s" (Json.float ev.time) (csv_field ev.src)
    (kind_to_string ev.kind) (csv_field ev.detail) (Json.float ev.value)

let jsonl_writer write = Writer { write = (fun ev -> write (to_json ev ^ "\n")) }

let csv_writer write =
  let header_done = ref false in
  Writer
    { write =
        (fun ev ->
          if not !header_done then begin
            header_done := true;
            write (csv_header ^ "\n")
          end;
          write (to_csv ev ^ "\n")) }

let count t kind =
  let r = ring "count" t in
  let n = ref 0 in
  for i = 0 to held r - 1 do
    if r.buf.(i).kind = kind then incr n
  done;
  !n
