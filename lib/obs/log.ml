(* Structured JSONL event log.  Off by default: [event] then only
   feeds the flight-recorder ring (always-on forensics) and returns.
   Enabled via [enable] (the CLI's --log flag) or the NANOXCOMP_LOG
   environment variable, after which each event is written as one JSON
   object per line.

   Writes are serialized with a mutex so worker domains can log
   directly; each line is flushed so the log tails cleanly and survives
   a crash. *)

type level = Debug | Info | Warn | Error

let level_label = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type dest = { oc : out_channel; close_on_disable : bool }

let dest_ref : dest option ref = ref None

let write_mutex = Mutex.create ()

let disable () =
  match !dest_ref with
  | None -> ()
  | Some d ->
      dest_ref := None;
      (try flush d.oc with Sys_error _ -> ());
      if d.close_on_disable then (try close_out d.oc with Sys_error _ -> ())

let enable ?(dest = "-") () =
  disable ();
  let d =
    if dest = "-" then { oc = stderr; close_on_disable = false }
    else { oc = open_out dest; close_on_disable = true }
  in
  dest_ref := Some d

let () = at_exit disable

let () =
  match Sys.getenv_opt "NANOXCOMP_LOG" with
  | None | Some "" | Some "0" -> ()
  | Some "1" | Some "-" -> enable ()
  | Some file -> enable ~dest:file ()

let write_line d json =
  let line = Json.to_string json in
  Mutex.lock write_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock write_mutex)
    (fun () ->
      output_string d.oc line;
      output_char d.oc '\n';
      flush d.oc)

let event ?(level = Info) ~name data =
  Recorder.record ~name (("level", Json.Str (level_label level)) :: data);
  match !dest_ref with
  | Some d ->
      write_line d
        (Json.Obj
           (("t_ns", Json.Int (Clock.now_ns ()))
           :: ("level", Json.Str (level_label level))
           :: ("event", Json.Str name)
           :: data))
  | None -> ()

let dump_flight ~reason =
  match !dest_ref with
  | None -> ()
  | Some d ->
      let entries = Recorder.entries () in
      write_line d
        (Json.Obj
           [ ("t_ns", Json.Int (Clock.now_ns ()));
             ("level", Json.Str "error");
             ("event", Json.Str "flight.dump");
             ("reason", Json.Str reason);
             ("entries", Json.Int (List.length entries)) ]);
      List.iter (fun e -> write_line d (Recorder.entry_json e)) entries
