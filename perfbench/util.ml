(* Shared helpers: clocks, order statistics, process memory and the
   output-check failure path. *)

exception Check_failed of string

(* An output check: a wrong answer aborts the run with a non-zero exit. *)
let check cond fmt = Printf.ksprintf (fun m -> if not cond then raise (Check_failed m)) fmt
let fail fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

(* Bit-exact float equality: a recomputed cost must reproduce the reported
   one exactly, not merely within a tolerance. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let now_ns = Obs.Clock.now_ns
let ms_between t0 t1 = Obs.Clock.ns_to_ms (Int64.sub t1 t0)
let ms_since t0 = ms_between t0 (now_ns ())

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* Minor words allocated by [f] on this domain. *)
let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Linear-interpolation quantile (q in [0, 1]); 0 on an empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* [num / den], or 0 when nothing was counted. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Peak resident set (VmHWM) of a live process ("self" or a pid), in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let lines = In_channel.with_open_text path In_channel.input_all in
  let kb =
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Option.some
        else None)
      (String.split_on_char '\n' lines)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith ("no VmHWM in " ^ path)

(* Hex digest of a list of lines: the per-seed signature of a run's work. *)
let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* What a workload hands back to main: the operations performed (a
   failed one raises {!Check_failed} instead), both metric sets, a
   human-readable report, and the counts a seed must reproduce exactly on
   every run. *)
type result = {
  attempted : int;
  e2e : (string * float) list;
  layers : (string * float) list;  (** empty unless traced *)
  report : (string * float * string) list;
  determinism : (string * string) list;
}
