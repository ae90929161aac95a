#include "host/scenario_spec.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "workload/suites.hh"

namespace ssdrr::host {

namespace {

using sim::json::Value;

[[noreturn]] void
specFail(const std::string &msg)
{
    throw SpecError(msg);
}

std::string
joinKeys(std::initializer_list<const char *> keys)
{
    std::string out;
    for (const char *k : keys) {
        if (!out.empty())
            out += ", ";
        out += k;
    }
    return out;
}

/** Reject members outside the schema, naming path and alternatives. */
void
checkKeys(const Value &obj, const std::string &where,
          std::initializer_list<const char *> allowed)
{
    for (const auto &[key, value] : obj.members()) {
        (void)value;
        bool known = false;
        for (const char *k : allowed)
            if (key == k) {
                known = true;
                break;
            }
        if (!known)
            specFail(where + ": unknown key \"" + key +
                     "\" (allowed: " + joinKeys(allowed) + ")");
    }
}

const Value &
requireObject(const Value &v, const std::string &where)
{
    if (!v.isObject())
        specFail(where + ": expected an object, got " + v.typeName());
    return v;
}

std::string
getString(const Value &obj, const char *key, const std::string &where,
          const std::string &dflt)
{
    const Value *v = obj.find(key);
    if (!v)
        return dflt;
    if (!v->isString())
        specFail(where + "." + key + ": expected a string, got " +
                 v->typeName());
    return v->asString();
}

double
getNumber(const Value &obj, const char *key, const std::string &where,
          double dflt)
{
    const Value *v = obj.find(key);
    if (!v)
        return dflt;
    if (!v->isNumber())
        specFail(where + "." + key + ": expected a number, got " +
                 v->typeName());
    return v->asNumber();
}

bool
getBool(const Value &obj, const char *key, const std::string &where,
        bool dflt)
{
    const Value *v = obj.find(key);
    if (!v)
        return dflt;
    if (!v->isBool())
        specFail(where + "." + key + ": expected true or false, got " +
                 v->typeName());
    return v->asBool();
}

std::uint64_t
getUint(const Value &obj, const char *key, const std::string &where,
        std::uint64_t dflt)
{
    const Value *v = obj.find(key);
    if (!v)
        return dflt;
    if (!v->isNumber())
        specFail(where + "." + key + ": expected a number, got " +
                 v->typeName());
    const double n = v->asNumber();
    if (n < 0.0 || n != std::floor(n))
        specFail(where + "." + key +
                 ": expected a non-negative integer, got " +
                 v->dump(0));
    // JSON numbers are doubles: integers at or beyond 2^53 may
    // already have been rounded by the parser (2^53 + 1 reads back
    // as 2^53), silently changing the value — a seed most likely.
    // Reject instead of running the wrong run.
    if (n >= 9007199254740992.0)
        specFail(where + "." + key + ": " + v->dump(0) +
                 " exceeds 2^53 - 1, the largest integer a JSON "
                 "number carries exactly");
    return static_cast<std::uint64_t>(n);
}

std::uint32_t
getUint32(const Value &obj, const char *key, const std::string &where,
          std::uint32_t dflt)
{
    const std::uint64_t v = getUint(obj, key, where, dflt);
    if (v > std::numeric_limits<std::uint32_t>::max())
        specFail(where + "." + key + ": " + std::to_string(v) +
                 " is out of range (max " +
                 std::to_string(
                     std::numeric_limits<std::uint32_t>::max()) +
                 ")");
    return static_cast<std::uint32_t>(v);
}

std::vector<std::uint32_t>
maskToChannels(std::uint32_t mask)
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t c = 0; c < 32; ++c)
        if (mask & (1u << c))
            out.push_back(c);
    return out;
}

const char *
modeName(InjectionMode m)
{
    return m == InjectionMode::OpenLoop ? "open" : "closed";
}

InjectionMode
parseMode(const std::string &s, const std::string &where)
{
    if (s == "open")
        return InjectionMode::OpenLoop;
    if (s == "closed")
        return InjectionMode::ClosedLoop;
    specFail(where + ".mode: unknown injection mode \"" + s +
             "\" (expected \"open\" or \"closed\")");
}

Value
tenantToJson(const TenantSpec &t)
{
    Value o = Value::object();
    o.set("name", Value(t.name));
    o.set("workload", Value(t.workload));
    o.set("requests", Value(t.requests));
    o.set("mode", Value(modeName(t.mode)));
    o.set("qdLimit", Value(std::uint64_t{t.qdLimit}));
    o.set("weight", Value(std::uint64_t{t.weight}));
    o.set("iops", Value(t.iops));
    o.set("rateIops", Value(t.rateIops));
    o.set("burst", Value(t.burst));
    o.set("sloUs", Value(t.sloUs));
    if (t.channelMask != 0) {
        Value chans = Value::array();
        for (std::uint32_t c : maskToChannels(t.channelMask))
            chans.push(Value(std::uint64_t{c}));
        o.set("channels", std::move(chans));
    }
    o.set("horizonUs", Value(t.horizonUs));
    return o;
}

TenantSpec
tenantFromJson(const Value &v, const std::string &where)
{
    requireObject(v, where);
    checkKeys(v, where,
              {"name", "workload", "requests", "mode", "qdLimit",
               "weight", "iops", "rateIops", "burst", "sloUs",
               "channels", "horizonUs"});
    TenantSpec t;
    t.name = getString(v, "name", where, "");
    t.workload = getString(v, "workload", where, t.workload);
    t.requests = getUint(v, "requests", where, t.requests);
    t.mode = parseMode(getString(v, "mode", where, modeName(t.mode)),
                       where);
    t.qdLimit = getUint32(v, "qdLimit", where, t.qdLimit);
    t.weight = getUint32(v, "weight", where, t.weight);
    t.iops = getNumber(v, "iops", where, t.iops);
    t.rateIops = getNumber(v, "rateIops", where, t.rateIops);
    t.burst = getNumber(v, "burst", where, t.burst);
    t.sloUs = getNumber(v, "sloUs", where, t.sloUs);
    t.horizonUs = getNumber(v, "horizonUs", where, t.horizonUs);
    if (const Value *chans = v.find("channels")) {
        if (!chans->isArray())
            specFail(where + ".channels: expected an array of channel "
                             "indices, got " +
                     chans->typeName());
        std::uint32_t mask = 0;
        std::size_t i = 0;
        for (const Value &c : chans->elements()) {
            const std::string cw =
                where + ".channels[" + std::to_string(i++) + "]";
            if (!c.isNumber() || c.asNumber() < 0.0 ||
                c.asNumber() != std::floor(c.asNumber()) ||
                c.asNumber() >= 32.0)
                specFail(cw + ": expected a channel index, got " +
                         c.dump(0));
            const std::uint32_t idx =
                static_cast<std::uint32_t>(c.asNumber());
            if (mask & (1u << idx))
                specFail(cw + ": channel " + std::to_string(idx) +
                         " listed twice");
            mask |= 1u << idx;
        }
        t.channelMask = mask;
    }
    return t;
}

Value
faultToJson(const FaultSpec &f)
{
    // Like filters: emit only the selected type's knobs, so the
    // round-trip is exact and the files stay readable.
    Value o = Value::object();
    o.set("type", Value(f.type));
    o.set("drive", Value(std::uint64_t{f.drive}));
    o.set("atUs", Value(f.atUs));
    if (f.type == "failStop") {
        if (f.rebuild) {
            o.set("rebuild", Value(f.rebuild));
            o.set("rebuildRows", Value(f.rebuildRows));
        }
    } else {
        o.set("untilUs", Value(f.untilUs));
        if (f.type == "failSlow")
            o.set("multiplier", Value(f.multiplier));
        else if (f.type == "uecc")
            o.set("probability", Value(f.probability));
    }
    return o;
}

FaultSpec
faultFromJson(const Value &v, const std::string &where)
{
    requireObject(v, where);
    FaultSpec f;
    f.type = getString(v, "type", where, "");
    if (f.type == "failStop") {
        checkKeys(v, where,
                  {"type", "drive", "atUs", "rebuild", "rebuildRows"});
        f.rebuild = getBool(v, "rebuild", where, f.rebuild);
        f.rebuildRows = getUint(v, "rebuildRows", where, f.rebuildRows);
    } else if (f.type == "failSlow") {
        checkKeys(v, where,
                  {"type", "drive", "atUs", "untilUs", "multiplier"});
        f.untilUs = getNumber(v, "untilUs", where, f.untilUs);
        f.multiplier = getNumber(v, "multiplier", where, f.multiplier);
    } else if (f.type == "uecc") {
        checkKeys(v, where,
                  {"type", "drive", "atUs", "untilUs", "probability"});
        f.untilUs = getNumber(v, "untilUs", where, f.untilUs);
        f.probability =
            getNumber(v, "probability", where, f.probability);
    } else {
        specFail(where + ".type: unknown fault \"" + f.type +
                 "\" (known: failStop, failSlow, uecc)");
    }
    f.drive = getUint32(v, "drive", where, f.drive);
    f.atUs = getNumber(v, "atUs", where, f.atUs);
    return f;
}

Value
filterToJson(const filter::FilterSpec &f)
{
    // Emit only the selected type's knobs: the other fields are
    // per-type defaults, and fromJson restores them, so the
    // round-trip is exact and the files stay readable.
    Value o = Value::object();
    o.set("type", Value(f.type));
    if (f.type == "cache") {
        o.set("sizeBytes", Value(f.sizeBytes));
        o.set("eviction", Value(f.eviction));
        o.set("admission", Value(f.admission));
        o.set("hitLatencyUs", Value(f.hitLatencyUs));
    } else if (f.type == "readahead") {
        o.set("windowPages", Value(std::uint64_t{f.windowPages}));
        o.set("streams", Value(std::uint64_t{f.streams}));
    } else if (f.type == "split") {
        o.set("maxPages", Value(std::uint64_t{f.maxPages}));
        o.set("coalesceWindowUs", Value(f.coalesceWindowUs));
    } else if (f.type == "delay") {
        o.set("delayUs", Value(f.delayUs));
        o.set("applies", Value(f.applies));
    } else if (f.type == "throttle") {
        o.set("rateIops", Value(f.rateIops));
        o.set("burst", Value(f.burst));
    } else if (f.type == "xfer") {
        o.set("usPerKb", Value(f.usPerKb));
    }
    return o;
}

filter::FilterSpec
filterFromJson(const Value &v, const std::string &where)
{
    requireObject(v, where);
    filter::FilterSpec f;
    f.type = getString(v, "type", where, "");
    if (f.type == "cache") {
        checkKeys(v, where,
                  {"type", "sizeBytes", "eviction", "admission",
                   "hitLatencyUs"});
        f.sizeBytes = getUint(v, "sizeBytes", where, f.sizeBytes);
        f.eviction = getString(v, "eviction", where, f.eviction);
        f.admission = getString(v, "admission", where, f.admission);
        f.hitLatencyUs =
            getNumber(v, "hitLatencyUs", where, f.hitLatencyUs);
    } else if (f.type == "readahead") {
        checkKeys(v, where, {"type", "windowPages", "streams"});
        f.windowPages =
            getUint32(v, "windowPages", where, f.windowPages);
        f.streams = getUint32(v, "streams", where, f.streams);
    } else if (f.type == "split") {
        checkKeys(v, where, {"type", "maxPages", "coalesceWindowUs"});
        f.maxPages = getUint32(v, "maxPages", where, f.maxPages);
        f.coalesceWindowUs = getNumber(v, "coalesceWindowUs", where,
                                       f.coalesceWindowUs);
    } else if (f.type == "delay") {
        checkKeys(v, where, {"type", "delayUs", "applies"});
        f.delayUs = getNumber(v, "delayUs", where, f.delayUs);
        f.applies = getString(v, "applies", where, f.applies);
    } else if (f.type == "throttle") {
        checkKeys(v, where, {"type", "rateIops", "burst"});
        f.rateIops = getNumber(v, "rateIops", where, f.rateIops);
        f.burst = getNumber(v, "burst", where, f.burst);
    } else if (f.type == "xfer") {
        checkKeys(v, where, {"type", "usPerKb"});
        f.usPerKb = getNumber(v, "usPerKb", where, f.usPerKb);
    } else {
        specFail(where + ".type: unknown filter \"" + f.type +
                 "\" (known: cache, readahead, split, delay, "
                 "throttle, xfer)");
    }
    return f;
}

Value
fabricToJson(const fabric::TopologySpec &f)
{
    Value o = Value::object();
    Value nodes = Value::array();
    for (const fabric::NodeSpec &n : f.nodes) {
        Value nv = Value::object();
        nv.set("name", Value(n.name));
        nv.set("kind", Value(n.kind));
        nodes.push(std::move(nv));
    }
    o.set("nodes", std::move(nodes));
    Value links = Value::array();
    for (const fabric::LinkSpec &l : f.links) {
        Value lv = Value::object();
        lv.set("from", Value(l.from));
        lv.set("to", Value(l.to));
        lv.set("latencyUs", Value(l.latencyUs));
        lv.set("usPerKb", Value(l.usPerKb));
        links.push(std::move(lv));
    }
    o.set("links", std::move(links));
    Value drives = Value::array();
    for (const std::string &d : f.drives)
        drives.push(Value(d));
    o.set("drives", std::move(drives));
    return o;
}

fabric::TopologySpec
fabricFromJson(const Value &v)
{
    requireObject(v, "fabric");
    checkKeys(v, "fabric", {"nodes", "links", "drives"});
    fabric::TopologySpec f;
    if (const Value *nodes = v.find("nodes")) {
        if (!nodes->isArray())
            specFail("fabric.nodes: expected an array of node "
                     "objects, got " +
                     std::string(nodes->typeName()));
        std::size_t i = 0;
        for (const Value &n : nodes->elements()) {
            const std::string where =
                "fabric.nodes[" + std::to_string(i++) + "]";
            requireObject(n, where);
            checkKeys(n, where, {"name", "kind"});
            fabric::NodeSpec node;
            node.name = getString(n, "name", where, "");
            node.kind = getString(n, "kind", where, "");
            f.nodes.push_back(std::move(node));
        }
    }
    if (const Value *links = v.find("links")) {
        if (!links->isArray())
            specFail("fabric.links: expected an array of link "
                     "objects, got " +
                     std::string(links->typeName()));
        std::size_t i = 0;
        for (const Value &l : links->elements()) {
            const std::string where =
                "fabric.links[" + std::to_string(i++) + "]";
            requireObject(l, where);
            checkKeys(l, where, {"from", "to", "latencyUs", "usPerKb"});
            fabric::LinkSpec link;
            link.from = getString(l, "from", where, "");
            link.to = getString(l, "to", where, "");
            link.latencyUs =
                getNumber(l, "latencyUs", where, link.latencyUs);
            link.usPerKb = getNumber(l, "usPerKb", where, link.usPerKb);
            f.links.push_back(std::move(link));
        }
    }
    if (const Value *drives = v.find("drives")) {
        if (!drives->isArray())
            specFail("fabric.drives: expected an array of node "
                     "names, got " +
                     std::string(drives->typeName()));
        std::size_t i = 0;
        for (const Value &d : drives->elements()) {
            const std::string where =
                "fabric.drives[" + std::to_string(i++) + "]";
            if (!d.isString())
                specFail(where + ": expected a node name, got " +
                         d.typeName());
            f.drives.push_back(d.asString());
        }
    }
    return f;
}

} // namespace

// --------------------------------------------------------- SsdSpec

ssd::Config
SsdSpec::toConfig() const
{
    ssd::Config cfg;
    if (geometry == "small")
        cfg = ssd::Config::small();
    else if (geometry == "paper")
        cfg = ssd::Config::paper();
    else
        specFail("ssd.geometry: unknown preset \"" + geometry +
                 "\" (expected \"small\" or \"paper\")");
    cfg.basePeKilo = pecKilo;
    cfg.baseRetentionMonths = retentionMonths;
    cfg.temperatureC = temperatureC;
    cfg.refreshThresholdMonths = refreshMonths;
    cfg.suspension = suspension;
    cfg.seed = seed;
    return cfg;
}

bool
SsdSpec::operator==(const SsdSpec &o) const
{
    return geometry == o.geometry && pecKilo == o.pecKilo &&
           retentionMonths == o.retentionMonths &&
           temperatureC == o.temperatureC &&
           refreshMonths == o.refreshMonths &&
           suspension == o.suspension && seed == o.seed;
}

// -------------------------------------------------------- FaultSpec

sim::FaultEvent
FaultSpec::toEvent() const
{
    sim::FaultEvent e;
    if (type == "failStop")
        e.kind = sim::FaultEvent::Kind::FailStop;
    else if (type == "failSlow")
        e.kind = sim::FaultEvent::Kind::FailSlow;
    else if (type == "uecc")
        e.kind = sim::FaultEvent::Kind::Uecc;
    else
        specFail("fault.type: unknown fault \"" + type +
                 "\" (known: failStop, failSlow, uecc)");
    e.drive = drive;
    e.at = sim::usec(atUs);
    e.until = untilUs > 0.0 ? sim::usec(untilUs) : sim::kTickNever;
    e.multiplier = multiplier;
    e.probability = probability;
    e.rebuild = rebuild;
    e.rebuildRows = rebuildRows;
    return e;
}

bool
FaultSpec::operator==(const FaultSpec &o) const
{
    return type == o.type && drive == o.drive && atUs == o.atUs &&
           untilUs == o.untilUs && multiplier == o.multiplier &&
           probability == o.probability && rebuild == o.rebuild &&
           rebuildRows == o.rebuildRows;
}

bool
operator==(const TenantSpec &a, const TenantSpec &b)
{
    return a.name == b.name && a.workload == b.workload &&
           a.requests == b.requests && a.iops == b.iops &&
           a.mode == b.mode && a.qdLimit == b.qdLimit &&
           a.weight == b.weight && a.rateIops == b.rateIops &&
           a.burst == b.burst && a.sloUs == b.sloUs &&
           a.channelMask == b.channelMask &&
           a.horizonUs == b.horizonUs;
}

bool
ScenarioSpec::operator==(const ScenarioSpec &o) const
{
    return name == o.name && ssd == o.ssd &&
           mechanisms == o.mechanisms && drives == o.drives &&
           raidLevel == o.raidLevel &&
           stripeUnitPages == o.stripeUnitPages &&
           failedDrives == o.failedDrives && faults == o.faults &&
           threads == o.threads && queueDepth == o.queueDepth &&
           arbitration == o.arbitration &&
           maxDeviceInflight == o.maxDeviceInflight &&
           timeoutUs == o.timeoutUs && retryMax == o.retryMax &&
           retryBackoffUs == o.retryBackoffUs &&
           hostLinkUs == o.hostLinkUs &&
           transferUsPerKb == o.transferUsPerKb &&
           fabric == o.fabric && filters == o.filters &&
           tenants == o.tenants;
}

// ---------------------------------------------------- serialization

sim::json::Value
ScenarioSpec::toJson() const
{
    Value root = Value::object();
    if (!name.empty())
        root.set("name", Value(name));

    Value sd = Value::object();
    sd.set("geometry", Value(ssd.geometry));
    sd.set("pecKilo", Value(ssd.pecKilo));
    sd.set("retentionMonths", Value(ssd.retentionMonths));
    sd.set("temperatureC", Value(ssd.temperatureC));
    sd.set("refreshMonths", Value(ssd.refreshMonths));
    sd.set("suspension", Value(ssd.suspension));
    sd.set("seed", Value(ssd.seed));
    root.set("ssd", std::move(sd));

    Value mechs = Value::array();
    for (const std::string &m : mechanisms)
        mechs.push(Value(m));
    root.set("mechanisms", std::move(mechs));
    root.set("drives", Value(std::uint64_t{drives}));

    Value av = Value::object();
    av.set("raidLevel", Value(raidLevel));
    av.set("stripeUnitPages", Value(std::uint64_t{stripeUnitPages}));
    Value fv = Value::array();
    for (std::uint32_t d : failedDrives)
        fv.push(Value(std::uint64_t{d}));
    av.set("failedDrives", std::move(fv));
    root.set("array", std::move(av));

    if (!faults.empty()) {
        Value fav = Value::array();
        for (const FaultSpec &f : faults)
            fav.push(faultToJson(f));
        root.set("faults", std::move(fav));
    }

    root.set("threads", Value(std::uint64_t{threads}));

    if (!fabric.empty())
        root.set("fabric", fabricToJson(fabric));

    Value hv = Value::object();
    hv.set("queueDepth", Value(std::uint64_t{queueDepth}));
    hv.set("arbitration", Value(arbitration));
    hv.set("maxDeviceInflight",
           Value(std::uint64_t{maxDeviceInflight}));
    hv.set("timeoutUs", Value(timeoutUs));
    hv.set("retryMax", Value(std::uint64_t{retryMax}));
    hv.set("retryBackoffUs", Value(retryBackoffUs));
    hv.set("hostLinkUs", Value(hostLinkUs));
    hv.set("transferUsPerKb", Value(transferUsPerKb));
    if (!filters.empty()) {
        Value fv = Value::array();
        for (const filter::FilterSpec &f : filters)
            fv.push(filterToJson(f));
        hv.set("filters", std::move(fv));
    }
    root.set("host", std::move(hv));

    Value tv = Value::array();
    for (const TenantSpec &t : tenants)
        tv.push(tenantToJson(t));
    root.set("tenants", std::move(tv));
    return root;
}

std::string
ScenarioSpec::toJsonText() const
{
    return toJson().dump(2);
}

ScenarioSpec
ScenarioSpec::fromJson(const sim::json::Value &v)
{
    requireObject(v, "scenario");
    checkKeys(v, "scenario",
              {"name", "ssd", "mechanisms", "drives", "array",
               "faults", "threads", "fabric", "host", "tenants"});
    ScenarioSpec spec;
    spec.name = getString(v, "name", "scenario", "");

    if (const Value *sd = v.find("ssd")) {
        requireObject(*sd, "ssd");
        checkKeys(*sd, "ssd",
                  {"geometry", "pecKilo", "retentionMonths",
                   "temperatureC", "refreshMonths", "suspension",
                   "seed"});
        spec.ssd.geometry =
            getString(*sd, "geometry", "ssd", spec.ssd.geometry);
        spec.ssd.pecKilo =
            getNumber(*sd, "pecKilo", "ssd", spec.ssd.pecKilo);
        spec.ssd.retentionMonths = getNumber(
            *sd, "retentionMonths", "ssd", spec.ssd.retentionMonths);
        spec.ssd.temperatureC = getNumber(*sd, "temperatureC", "ssd",
                                          spec.ssd.temperatureC);
        spec.ssd.refreshMonths = getNumber(*sd, "refreshMonths", "ssd",
                                           spec.ssd.refreshMonths);
        spec.ssd.suspension =
            getBool(*sd, "suspension", "ssd", spec.ssd.suspension);
        spec.ssd.seed = getUint(*sd, "seed", "ssd", spec.ssd.seed);
    }

    if (const Value *mechs = v.find("mechanisms")) {
        if (!mechs->isArray())
            specFail("mechanisms: expected an array of mechanism "
                     "names, got " +
                     std::string(mechs->typeName()));
        spec.mechanisms.clear();
        std::size_t i = 0;
        for (const Value &m : mechs->elements()) {
            const std::string mw =
                "mechanisms[" + std::to_string(i++) + "]";
            if (!m.isString())
                specFail(mw + ": expected a mechanism name, got " +
                         m.typeName());
            spec.mechanisms.push_back(m.asString());
        }
    }

    spec.drives = getUint32(v, "drives", "scenario", spec.drives);

    if (const Value *av = v.find("array")) {
        requireObject(*av, "array");
        checkKeys(*av, "array",
                  {"raidLevel", "stripeUnitPages", "failedDrives"});
        spec.raidLevel =
            getString(*av, "raidLevel", "array", spec.raidLevel);
        spec.stripeUnitPages = getUint32(*av, "stripeUnitPages",
                                         "array",
                                         spec.stripeUnitPages);
        if (const Value *fv = av->find("failedDrives")) {
            if (!fv->isArray())
                specFail("array.failedDrives: expected an array of "
                         "drive indices, got " +
                         std::string(fv->typeName()));
            spec.failedDrives.clear();
            std::size_t i = 0;
            for (const Value &f : fv->elements()) {
                const std::string fw = "array.failedDrives[" +
                                       std::to_string(i++) + "]";
                if (!f.isNumber() || f.asNumber() < 0.0 ||
                    f.asNumber() != std::floor(f.asNumber()) ||
                    f.asNumber() >= 4294967296.0)
                    specFail(fw + ": expected a drive index, got " +
                             f.dump(0));
                spec.failedDrives.push_back(
                    static_cast<std::uint32_t>(f.asNumber()));
            }
        }
    }

    if (const Value *fav = v.find("faults")) {
        if (!fav->isArray())
            specFail("faults: expected an array of fault objects, "
                     "got " +
                     std::string(fav->typeName()));
        std::size_t i = 0;
        for (const Value &f : fav->elements())
            spec.faults.push_back(faultFromJson(
                f, "faults[" + std::to_string(i++) + "]"));
    }

    spec.threads = getUint32(v, "threads", "scenario", spec.threads);

    if (const Value *fb = v.find("fabric"))
        spec.fabric = fabricFromJson(*fb);

    if (const Value *hv = v.find("host")) {
        requireObject(*hv, "host");
        checkKeys(*hv, "host",
                  {"queueDepth", "arbitration", "maxDeviceInflight",
                   "timeoutUs", "retryMax", "retryBackoffUs",
                   "hostLinkUs", "transferUsPerKb", "filters"});
        spec.queueDepth =
            getUint32(*hv, "queueDepth", "host", spec.queueDepth);
        spec.arbitration =
            getString(*hv, "arbitration", "host", spec.arbitration);
        spec.maxDeviceInflight = getUint32(
            *hv, "maxDeviceInflight", "host", spec.maxDeviceInflight);
        spec.timeoutUs =
            getNumber(*hv, "timeoutUs", "host", spec.timeoutUs);
        spec.retryMax =
            getUint32(*hv, "retryMax", "host", spec.retryMax);
        spec.retryBackoffUs = getNumber(*hv, "retryBackoffUs", "host",
                                        spec.retryBackoffUs);
        spec.hostLinkUs =
            getNumber(*hv, "hostLinkUs", "host", spec.hostLinkUs);
        spec.transferUsPerKb = getNumber(*hv, "transferUsPerKb",
                                         "host",
                                         spec.transferUsPerKb);
        if (const Value *fv = hv->find("filters")) {
            if (!fv->isArray())
                specFail("host.filters: expected an array of filter "
                         "objects, got " +
                         std::string(fv->typeName()));
            std::size_t i = 0;
            for (const Value &f : fv->elements())
                spec.filters.push_back(filterFromJson(
                    f,
                    "host.filters[" + std::to_string(i++) + "]"));
        }
    }

    if (const Value *tv = v.find("tenants")) {
        if (!tv->isArray())
            specFail("tenants: expected an array of tenant objects, "
                     "got " +
                     std::string(tv->typeName()));
        spec.tenants.clear();
        std::size_t i = 0;
        for (const Value &t : tv->elements())
            spec.tenants.push_back(tenantFromJson(
                t, "tenants[" + std::to_string(i++) + "]"));
    }
    return spec;
}

ScenarioSpec
ScenarioSpec::fromJsonText(const std::string &text)
{
    std::string err;
    const Value v = sim::json::parse(text, &err);
    if (!err.empty())
        specFail("invalid JSON: " + err);
    ScenarioSpec spec = fromJson(v);
    spec.validate();
    return spec;
}

ScenarioSpec
ScenarioSpec::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        specFail("cannot open scenario file '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return fromJsonText(buf.str());
    } catch (const SpecError &e) {
        specFail(path + ": " + e.what());
    }
}

void
ScenarioSpec::saveFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        specFail("cannot write scenario file '" + path + "'");
    out << toJsonText();
    if (!out)
        specFail("short write to scenario file '" + path + "'");
}

// ------------------------------------------------------- validation

void
ScenarioSpec::validate() const
{
    const ssd::Config cfg = ssd.toConfig(); // checks the preset
    if (ssd.pecKilo < 0.0)
        specFail("ssd.pecKilo: must be >= 0");
    if (ssd.retentionMonths < 0.0)
        specFail("ssd.retentionMonths: must be >= 0");
    if (ssd.refreshMonths < 0.0)
        specFail("ssd.refreshMonths: must be >= 0");
    if (ssd.temperatureC < -40.0 || ssd.temperatureC > 125.0)
        specFail("ssd.temperatureC: " +
                 std::to_string(ssd.temperatureC) +
                 " is outside the operating range [-40, 125]");

    if (mechanisms.empty())
        specFail("mechanisms: must name at least one mechanism");
    for (std::size_t i = 0; i < mechanisms.size(); ++i) {
        if (!core::tryParseMechanism(mechanisms[i], nullptr)) {
            std::string known;
            for (core::Mechanism m : core::allMechanisms()) {
                if (!known.empty())
                    known += ", ";
                known += core::name(m);
            }
            specFail("mechanisms[" + std::to_string(i) +
                     "]: unknown mechanism \"" + mechanisms[i] +
                     "\" (known: " + known + ")");
        }
    }

    if (drives < 1)
        specFail("drives: must be >= 1");

    RaidLevel raid;
    if (!tryParseRaidLevel(raidLevel, &raid))
        specFail("array.raidLevel: unknown level \"" + raidLevel +
                 "\" (expected \"raid0\" or \"raid5\")");
    if (stripeUnitPages < 1)
        specFail("array.stripeUnitPages: must be >= 1");
    if (raid == RaidLevel::Raid5) {
        if (drives < 3)
            specFail("array.raidLevel: \"raid5\" needs drives >= 3 "
                     "(one rotating parity unit per stripe row), got "
                     "drives = " +
                     std::to_string(drives));
        if (std::uint64_t{stripeUnitPages} > cfg.logicalPages())
            specFail("array.stripeUnitPages: " +
                     std::to_string(stripeUnitPages) +
                     " exceeds the " +
                     std::to_string(cfg.logicalPages()) +
                     " logical pages of one \"" + ssd.geometry +
                     "\" drive, leaving no full stripe row");
    }
    const std::uint32_t tolerance =
        raid == RaidLevel::Raid5 ? 1u : 0u;
    for (std::size_t i = 0; i < failedDrives.size(); ++i) {
        const std::string fw =
            "array.failedDrives[" + std::to_string(i) + "]";
        if (failedDrives[i] >= drives)
            specFail(fw + ": drive " +
                     std::to_string(failedDrives[i]) +
                     " is out of range (the array has " +
                     std::to_string(drives) + " drives)");
        for (std::size_t j = 0; j < i; ++j)
            if (failedDrives[j] == failedDrives[i])
                specFail(fw + ": drive " +
                         std::to_string(failedDrives[i]) +
                         " listed twice");
    }
    if (failedDrives.size() > tolerance)
        specFail("array.failedDrives: " +
                 std::to_string(failedDrives.size()) +
                 " failed drives exceed what \"" + raidLevel +
                 "\" can serve through (" +
                 (raid == RaidLevel::Raid5
                      ? "one failure; its data is reconstructed "
                        "from the surviving stripe mates"
                      : "none; raid0 has no redundancy") +
                 ")");

    bool any_fail_stop = false;
    bool any_rebuild = false;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const FaultSpec &f = faults[i];
        const std::string w = "faults[" + std::to_string(i) + "]";
        if (f.type != "failStop" && f.type != "failSlow" &&
            f.type != "uecc")
            specFail(w + ".type: unknown fault \"" + f.type +
                     "\" (known: failStop, failSlow, uecc)");
        if (f.drive >= drives)
            specFail(w + ".drive: drive " + std::to_string(f.drive) +
                     " is out of range (the array has " +
                     std::to_string(drives) + " drives)");
        for (std::uint32_t dead : failedDrives)
            if (f.drive == dead)
                specFail(w + ".drive: drive " +
                         std::to_string(f.drive) +
                         " is already listed in array.failedDrives "
                         "(it failed before the run; a fault cannot "
                         "hit it again)");
        if (!(f.atUs >= 0.0) || f.atUs > 1e9)
            specFail(w + ".atUs: must be a start time in [0, 1e9] "
                         "microseconds");
        if (f.type == "failStop") {
            if (f.untilUs != 0.0)
                specFail(w + ".untilUs: a failStop fault is "
                             "permanent; drop untilUs");
            for (std::size_t j = 0; j < i; ++j)
                if (faults[j].type == "failStop" &&
                    faults[j].drive == f.drive)
                    specFail(w + ".drive: drive " +
                             std::to_string(f.drive) +
                             " fail-stops twice on the timeline");
            any_fail_stop = true;
        } else {
            if (f.untilUs != 0.0 && f.untilUs <= f.atUs)
                specFail(w + ".untilUs: the window must end after "
                             "atUs (or be 0, open-ended)");
            if (f.untilUs > 1e9)
                specFail(w + ".untilUs: must be a window end in "
                             "[0, 1e9] microseconds");
        }
        if (f.type == "failSlow" &&
            (!(f.multiplier > 1.0) || f.multiplier > 1e6))
            specFail(w + ".multiplier: must be a device-latency "
                         "stretch in (1, 1e6]");
        if (f.type == "uecc" &&
            (!(f.probability > 0.0) || f.probability > 1.0))
            specFail(w + ".probability: must be a per-read UECC "
                         "probability in (0, 1]");
        if (f.rebuild) {
            if (f.type != "failStop")
                specFail(w + ".rebuild: only a failStop fault can "
                             "start a rebuild-to-spare");
            if (raid != RaidLevel::Raid5)
                specFail(w + ".rebuild: rebuild-to-spare "
                             "reconstructs from RAID-5 stripe mates; "
                             "set array.raidLevel \"raid5\"");
            if (any_rebuild)
                specFail(w + ".rebuild: the run models one rebuild; "
                             "a second fault already set it");
            any_rebuild = true;
        } else if (f.rebuildRows != 0) {
            specFail(w + ".rebuildRows: set without rebuild (it "
                         "bounds the rebuild region)");
        }
    }
    if (any_fail_stop && timeoutUs <= 0.0)
        specFail("host.timeoutUs: a failStop fault needs a "
                 "per-subrequest deadline > 0 — the host only "
                 "detects a silent drive through timeouts");

    if (!(hostLinkUs >= 0.0) || hostLinkUs > 1e9)
        specFail("host.hostLinkUs: must be a turnaround in [0, 1e9] "
                 "microseconds");
    if (hostLinkUs > 0.0 && sim::usec(hostLinkUs) < 1)
        specFail("host.hostLinkUs: " + std::to_string(hostLinkUs) +
                 " rounds to zero simulator ticks (the tick is 1 ns), "
                 "which would silently fall back to the legacy "
                 "shared-queue engine; use 0 explicitly, or at least "
                 "0.001");
    // threads has no effect; its rule stays so that every spec's
    // verdict is stable across versions.
    if (threads != 1 && hostLinkUs <= 0.0 && fabric.empty())
        specFail("threads: " + std::to_string(threads) +
                 " (accepted for compatibility; it starts no "
                 "threads) — values other than 1 need "
                 "host.hostLinkUs > 0 or a fabric; set "
                 "host.hostLinkUs, declare a fabric, or drop "
                 "threads");
    if (!fabric.empty()) {
        if (hostLinkUs > 0.0)
            specFail("host.hostLinkUs: set alongside a fabric — the "
                     "fabric's links replace the flat host link; "
                     "drop hostLinkUs (its role is played by the "
                     "host-adjacent link's latencyUs)");
        try {
            fabric.validate(drives);
        } catch (const fabric::TopologyError &e) {
            specFail(e.what());
        }
    }
    if (!(transferUsPerKb >= 0.0) || transferUsPerKb > 1e9)
        specFail("host.transferUsPerKb: must be a per-KiB transfer "
                 "cost in [0, 1e9] microseconds");
    for (std::size_t i = 0; i < filters.size(); ++i) {
        const filter::FilterSpec &f = filters[i];
        const std::string w =
            "host.filters[" + std::to_string(i) + "]";
        if (f.type == "cache") {
            if (f.sizeBytes < cfg.pageBytes)
                specFail(w + ".sizeBytes: " +
                         std::to_string(f.sizeBytes) +
                         " holds no whole page (the \"" +
                         ssd.geometry + "\" geometry's page is " +
                         std::to_string(cfg.pageBytes) + " bytes)");
            if (f.sizeBytes > (1ull << 40))
                specFail(w + ".sizeBytes: " +
                         std::to_string(f.sizeBytes) +
                         " exceeds 1 TiB of host DRAM");
            if (f.eviction != "lru" && f.eviction != "fifo")
                specFail(w + ".eviction: unknown policy \"" +
                         f.eviction +
                         "\" (expected \"lru\" or \"fifo\")");
            if (f.admission != "reads" && f.admission != "all")
                specFail(w + ".admission: unknown policy \"" +
                         f.admission +
                         "\" (expected \"reads\" or \"all\")");
            if (!(f.hitLatencyUs >= 0.0) || f.hitLatencyUs > 1e6)
                specFail(w + ".hitLatencyUs: must be a DRAM service "
                             "latency in [0, 1e6] microseconds");
        } else if (f.type == "readahead") {
            if (f.windowPages < 1 || f.windowPages > 1024)
                specFail(w + ".windowPages: must be in [1, 1024]");
            if (f.streams < 1 || f.streams > 1024)
                specFail(w + ".streams: must be in [1, 1024]");
        } else if (f.type == "split") {
            if (f.maxPages < 1 || f.maxPages > 4096)
                specFail(w + ".maxPages: must be in [1, 4096]");
            if (!(f.coalesceWindowUs >= 0.0) ||
                f.coalesceWindowUs > 1e9)
                specFail(w + ".coalesceWindowUs: must be a hold "
                             "window in [0, 1e9] microseconds");
        } else if (f.type == "delay") {
            if (!(f.delayUs >= 0.0) || f.delayUs > 1e9)
                specFail(w + ".delayUs: must be an added latency in "
                             "[0, 1e9] microseconds");
            if (f.applies != "all" && f.applies != "reads" &&
                f.applies != "writes")
                specFail(w + ".applies: unknown selector \"" +
                         f.applies +
                         "\" (expected \"all\", \"reads\", or "
                         "\"writes\")");
        } else if (f.type == "throttle") {
            if (!(f.rateIops > 0.0) || f.rateIops > 1e12)
                specFail(w + ".rateIops: must be a refill rate in "
                             "(0, 1e12] commands/second");
            if (!(f.burst >= 0.0))
                specFail(w + ".burst: must be >= 0");
        } else if (f.type == "xfer") {
            if (!(f.usPerKb > 0.0) || f.usPerKb > 1e9)
                specFail(w + ".usPerKb: must be a per-KiB transfer "
                             "cost in (0, 1e9] microseconds");
        } else {
            specFail(w + ".type: unknown filter \"" + f.type +
                     "\" (known: cache, readahead, split, delay, "
                     "throttle, xfer)");
        }
    }
    if (!(timeoutUs >= 0.0) || timeoutUs > 1e9)
        specFail("host.timeoutUs: must be a deadline in [0, 1e9] "
                 "microseconds (0 = no deadline tracking)");
    if (retryMax > 16)
        specFail("host.retryMax: " + std::to_string(retryMax) +
                 " reissues of one subrequest is runaway; the cap "
                 "is 16");
    if (!(retryBackoffUs >= 0.0) || retryBackoffUs > 1e9)
        specFail("host.retryBackoffUs: must be a backoff in "
                 "[0, 1e9] microseconds");
    if (queueDepth < 1)
        specFail("host.queueDepth: must be >= 1");
    Arbitration arb;
    if (!tryParseArbitration(arbitration, &arb))
        specFail("host.arbitration: unknown policy \"" + arbitration +
                 "\" (expected \"rr\", \"wrr\", or \"slo\")");

    if (tenants.empty())
        specFail("tenants: a scenario needs at least one tenant");

    const std::uint32_t all_channels = (1u << cfg.channels) - 1;
    // Layout-aware capacity (RAID-5 gives one drive to parity), the
    // same math SsdArray derives from its layout.
    const std::uint64_t slice =
        arrayLogicalPages(raid, drives, stripeUnitPages,
                          cfg.logicalPages()) /
        tenants.size();
    bool any_slo = false;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantSpec &t = tenants[i];
        const std::string w = "tenants[" + std::to_string(i) + "]";
        if (!looksLikeTracePath(t.workload) &&
            !workload::tryFindWorkload(t.workload, nullptr))
            specFail(w + ".workload: unknown workload \"" +
                     t.workload +
                     "\" (run ssdrr_sim --list-workloads for the "
                     "Table-2 suite, or name a .csv trace path)");
        if (t.requests < 1)
            specFail(w + ".requests: must be >= 1");
        if (t.qdLimit < 1)
            specFail(w + ".qdLimit: must be >= 1");
        if (t.mode == InjectionMode::ClosedLoop &&
            t.qdLimit > queueDepth)
            specFail(w + ".qdLimit: " + std::to_string(t.qdLimit) +
                     " exceeds host.queueDepth " +
                     std::to_string(queueDepth) +
                     " (a closed-loop window cannot outgrow its "
                     "queue pair)");
        if (t.weight < 1)
            specFail(w + ".weight: must be >= 1");
        if (t.iops < 0.0)
            specFail(w + ".iops: must be >= 0");
        if (t.iops > 0.0 && t.mode == InjectionMode::ClosedLoop)
            specFail(w + ".iops: set on a closed-loop tenant, but "
                         "closed-loop injection is completion-driven "
                         "and ignores arrival rates; set mode to "
                         "\"open\" or drop iops");
        if (t.rateIops < 0.0)
            specFail(w + ".rateIops: must be >= 0");
        if (t.burst < 0.0)
            specFail(w + ".burst: must be >= 0");
        if (t.burst > 0.0 && t.rateIops <= 0.0)
            specFail(w + ".burst: set without rateIops (a token "
                         "bucket needs a refill rate)");
        if (t.sloUs < 0.0)
            specFail(w + ".sloUs: must be >= 0");
        if (t.sloUs > 0.0 && arb != Arbitration::SloDeadline)
            specFail(w + ".sloUs: set but host.arbitration is \"" +
                     arbitration +
                     "\"; SLO deadlines are only honoured by the "
                     "\"slo\" policy");
        if (t.sloUs > 0.0)
            any_slo = true;
        if (t.horizonUs < 0.0)
            specFail(w + ".horizonUs: must be >= 0");
        if (t.horizonUs > 0.0 && t.mode == InjectionMode::ClosedLoop)
            specFail(w + ".horizonUs: a time horizon needs mode "
                         "\"open\" (closed-loop replays its trace "
                         "once)");
        if (t.channelMask != 0) {
            if (t.channelMask & ~all_channels)
                specFail(w + ".channels: names channel " +
                         std::to_string(
                             maskToChannels(t.channelMask & ~all_channels)
                                 .front()) +
                         " but the \"" + ssd.geometry +
                         "\" geometry has " +
                         std::to_string(cfg.channels) + " channels");
            // A mask naming every channel is no restriction;
            // runScenario normalizes it away, so skip the
            // affinity-only constraints for it too.
            if ((t.channelMask & all_channels) != all_channels) {
                if (raid != RaidLevel::Raid0)
                    specFail(w + ".channels: channel affinity "
                                 "assumes the raid0 striped layout "
                                 "(the channel lattice does not "
                                 "survive parity rotation); drop "
                                 "array.raidLevel \"" +
                             raidLevel + "\" or the mask");
                if (ssd.refreshMonths > 0.0)
                    specFail(w + ".channels: channel affinity cannot "
                                 "be combined with ssd.refreshMonths "
                                 "> 0 (read-reclaim rewrites do not "
                                 "honour the mask)");
                if (channelLatticePages(i * slice, slice, drives,
                                        cfg.layout(),
                                        t.channelMask) == 0)
                    specFail(w + ".channels: the mask leaves no "
                                 "preconditioned pages in the "
                                 "tenant's LPN slice");
            }
        }
    }
    if (arb == Arbitration::SloDeadline && !any_slo)
        specFail("host.arbitration: \"slo\" needs at least one tenant "
                 "with sloUs > 0 (otherwise it degenerates to rr)");
}

// -------------------------------------------------------- execution

ScenarioConfig
ScenarioSpec::toConfig(core::Mechanism mech, TraceCache *cache) const
{
    ScenarioConfig sc;
    sc.ssd = ssd.toConfig();
    sc.mech = mech;
    sc.drives = drives;
    sc.raid = parseRaidLevel(raidLevel);
    sc.stripeUnitPages = stripeUnitPages;
    sc.failedDrives = failedDrives;
    for (const FaultSpec &f : faults)
        sc.faults.push_back(f.toEvent());
    sc.timeoutUs = timeoutUs;
    sc.retryMax = retryMax;
    sc.retryBackoffUs = retryBackoffUs;
    sc.host.queueDepth = queueDepth;
    sc.host.arbitration = parseArbitration(arbitration);
    sc.host.maxDeviceInflight = maxDeviceInflight;
    sc.host.filters = filters;
    sc.hostLinkUs = hostLinkUs;
    sc.transferUsPerKb = transferUsPerKb;
    sc.fabric = fabric;
    sc.tenants = tenants;
    sc.traceCache = cache;
    return sc;
}

ScenarioResult
runScenario(const ScenarioSpec &spec, core::Mechanism mech,
            TraceCache *cache)
{
    spec.validate();
    return runScenario(spec.toConfig(mech, cache));
}

// ---------------------------------------------------------- builder

ScenarioBuilder::ScenarioBuilder()
{
    spec_.mechanisms.clear(); // build() defaults an empty sweep
}

TenantSpec &
ScenarioBuilder::current()
{
    if (spec_.tenants.empty())
        specFail("ScenarioBuilder: add a tenant() before per-tenant "
                 "setters");
    return spec_.tenants.back();
}

ScenarioBuilder &
ScenarioBuilder::name(std::string label)
{
    spec_.name = std::move(label);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::geometry(std::string preset)
{
    spec_.ssd.geometry = std::move(preset);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::pec(double kilo)
{
    spec_.ssd.pecKilo = kilo;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::retention(double months)
{
    spec_.ssd.retentionMonths = months;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::temperature(double celsius)
{
    spec_.ssd.temperatureC = celsius;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::refresh(double months)
{
    spec_.ssd.refreshMonths = months;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::suspension(bool on)
{
    spec_.ssd.suspension = on;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::seed(std::uint64_t s)
{
    spec_.ssd.seed = s;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::mechanism(const std::string &name)
{
    spec_.mechanisms.push_back(name);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::mechanism(core::Mechanism m)
{
    return mechanism(std::string(core::name(m)));
}

ScenarioBuilder &
ScenarioBuilder::drives(std::uint32_t n)
{
    spec_.drives = n;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::raid(const std::string &level)
{
    spec_.raidLevel = level;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::stripeUnitPages(std::uint32_t pages)
{
    spec_.stripeUnitPages = pages;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::failedDrives(const std::vector<std::uint32_t> &d)
{
    spec_.failedDrives = d;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::threads(std::uint32_t n)
{
    spec_.threads = n;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::fabric(const fabric::TopologySpec &topo)
{
    spec_.fabric = topo;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::fabricPreset(const std::string &preset)
{
    try {
        spec_.fabric = fabric::makePreset(preset, spec_.drives);
    } catch (const fabric::TopologyError &e) {
        specFail(e.what());
    }
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::fault(const FaultSpec &spec)
{
    spec_.faults.push_back(spec);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::failStop(std::uint32_t drive, double at_us,
                          bool rebuild, std::uint64_t rebuild_rows)
{
    FaultSpec f;
    f.type = "failStop";
    f.drive = drive;
    f.atUs = at_us;
    f.rebuild = rebuild;
    f.rebuildRows = rebuild ? rebuild_rows : 0;
    return fault(f);
}

ScenarioBuilder &
ScenarioBuilder::failSlow(std::uint32_t drive, double at_us,
                          double until_us, double multiplier)
{
    FaultSpec f;
    f.type = "failSlow";
    f.drive = drive;
    f.atUs = at_us;
    f.untilUs = until_us;
    f.multiplier = multiplier;
    return fault(f);
}

ScenarioBuilder &
ScenarioBuilder::ueccFault(std::uint32_t drive, double at_us,
                           double until_us, double probability)
{
    FaultSpec f;
    f.type = "uecc";
    f.drive = drive;
    f.atUs = at_us;
    f.untilUs = until_us;
    f.probability = probability;
    return fault(f);
}

ScenarioBuilder &
ScenarioBuilder::timeoutUs(double us)
{
    spec_.timeoutUs = us;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::retryMax(std::uint32_t attempts)
{
    spec_.retryMax = attempts;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::retryBackoffUs(double us)
{
    spec_.retryBackoffUs = us;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::hostLinkUs(double us)
{
    spec_.hostLinkUs = us;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::transferUsPerKb(double us)
{
    spec_.transferUsPerKb = us;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::queueDepth(std::uint32_t d)
{
    spec_.queueDepth = d;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::arbitration(const std::string &policy)
{
    spec_.arbitration = policy;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::arbitration(Arbitration policy)
{
    return arbitration(
        std::string(::ssdrr::host::name(policy)));
}

ScenarioBuilder &
ScenarioBuilder::maxDeviceInflight(std::uint32_t n)
{
    spec_.maxDeviceInflight = n;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::addFilter(const filter::FilterSpec &spec)
{
    spec_.filters.push_back(spec);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::dramCache(std::uint64_t sizeBytes)
{
    filter::FilterSpec f;
    f.type = "cache";
    f.sizeBytes = sizeBytes;
    return addFilter(f);
}

ScenarioBuilder &
ScenarioBuilder::readahead(std::uint32_t windowPages)
{
    filter::FilterSpec f;
    f.type = "readahead";
    f.windowPages = windowPages;
    return addFilter(f);
}

ScenarioBuilder &
ScenarioBuilder::tenant(std::string name, std::string workload,
                        std::uint64_t requests)
{
    TenantSpec t;
    t.name = std::move(name);
    t.workload = std::move(workload);
    t.requests = requests;
    spec_.tenants.push_back(std::move(t));
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::tenant(const TenantSpec &spec)
{
    spec_.tenants.push_back(spec);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::mode(InjectionMode m)
{
    current().mode = m;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::qdLimit(std::uint32_t qd)
{
    current().qdLimit = qd;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::weight(std::uint32_t w)
{
    current().weight = w;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::iops(double rate)
{
    current().iops = rate;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::rateIops(double rate)
{
    current().rateIops = rate;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::burst(double commands)
{
    current().burst = commands;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::sloUs(double us)
{
    current().sloUs = us;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::channels(const std::vector<std::uint32_t> &chans)
{
    std::uint32_t mask = 0;
    for (std::uint32_t c : chans) {
        if (c >= 32)
            specFail("ScenarioBuilder::channels: channel index " +
                     std::to_string(c) + " out of range");
        mask |= 1u << c;
    }
    current().channelMask = mask;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::horizonUs(double us)
{
    current().horizonUs = us;
    return *this;
}

ScenarioSpec
ScenarioBuilder::build() const
{
    ScenarioSpec spec = spec_;
    if (spec.mechanisms.empty())
        spec.mechanisms = {"Baseline"};
    spec.validate();
    return spec;
}

} // namespace ssdrr::host
